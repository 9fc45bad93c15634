// Package modeldb is a ModelDB-style model management store, the lifecycle
// layer the paper surveys: every training run is logged with its dataset
// hash, transform chain, hyperparameters, metrics and parent run, giving
// versioning, lineage queries and JSON persistence.
package modeldb

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"sort"
	"sync"

	"dmml/internal/la"
)

// Run is one recorded training run.
type Run struct {
	ID          int                `json:"id"`
	Name        string             `json:"name"`
	Version     int                `json:"version"`
	DatasetHash string             `json:"dataset_hash,omitempty"`
	Transforms  []string           `json:"transforms,omitempty"`
	Config      map[string]float64 `json:"config,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
	Weights     []float64          `json:"weights,omitempty"`
	ParentID    int                `json:"parent_id"` // -1 = root
	Tags        []string           `json:"tags,omitempty"`
}

// Spec describes a run to be logged; the store assigns ID and Version.
type Spec struct {
	Name        string
	DatasetHash string
	Transforms  []string
	Config      map[string]float64
	Metrics     map[string]float64
	Weights     []float64
	ParentID    int // -1 or a previously logged run
	Tags        []string
}

// Store is an in-memory, JSON-persistable run registry. It is safe for
// concurrent use: Log takes the write lock, every read path the read lock
// — the serving layer hot-reloads weights from a store that trainers are
// still logging into. Read paths return deep copies (see Run.clone), so a
// caller mutating a returned Run can never corrupt the registry.
type Store struct {
	mu     sync.RWMutex
	runs   []Run
	byID   map[int]int // id -> index in runs
	byName map[string][]int
	nextID int
}

// NewStore creates an empty store.
func NewStore() *Store {
	return &Store{byID: map[int]int{}, byName: map[string][]int{}, nextID: 1}
}

// clone returns a deep copy of the run: the registry and its callers must
// never share slice or map storage, in either direction.
func (r Run) clone() Run {
	r.Transforms = append([]string(nil), r.Transforms...)
	r.Config = cloneMap(r.Config)
	r.Metrics = cloneMap(r.Metrics)
	r.Weights = append([]float64(nil), r.Weights...)
	r.Tags = append([]string(nil), r.Tags...)
	return r
}

// Log records a run, assigning its ID and per-name version.
func (s *Store) Log(spec Spec) (Run, error) {
	if spec.Name == "" {
		return Run{}, fmt.Errorf("modeldb: run needs a name")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if spec.ParentID != -1 && spec.ParentID != 0 {
		if _, ok := s.byID[spec.ParentID]; !ok {
			return Run{}, fmt.Errorf("modeldb: parent run %d not found", spec.ParentID)
		}
	}
	parent := spec.ParentID
	if parent == 0 {
		parent = -1
	}
	run := Run{
		ID:          s.nextID,
		Name:        spec.Name,
		Version:     len(s.byName[spec.Name]) + 1,
		DatasetHash: spec.DatasetHash,
		Transforms:  append([]string(nil), spec.Transforms...),
		Config:      cloneMap(spec.Config),
		Metrics:     cloneMap(spec.Metrics),
		Weights:     append([]float64(nil), spec.Weights...),
		ParentID:    parent,
		Tags:        append([]string(nil), spec.Tags...),
	}
	s.nextID++
	s.byID[run.ID] = len(s.runs)
	s.byName[run.Name] = append(s.byName[run.Name], run.ID)
	s.runs = append(s.runs, run)
	return run.clone(), nil
}

func cloneMap(m map[string]float64) map[string]float64 {
	if m == nil {
		return nil
	}
	out := make(map[string]float64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// getLocked fetches a run by ID without locking or cloning; callers hold
// at least the read lock and must clone before the run escapes the store.
func (s *Store) getLocked(id int) (Run, error) {
	i, ok := s.byID[id]
	if !ok {
		return Run{}, fmt.Errorf("modeldb: run %d not found", id)
	}
	return s.runs[i], nil
}

// Latest returns the newest run with the given name.
func (s *Store) Latest(name string) (Run, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ids := s.byName[name]
	if len(ids) == 0 {
		return Run{}, fmt.Errorf("modeldb: no runs named %q", name)
	}
	return s.runs[s.byID[ids[len(ids)-1]]].clone(), nil
}

// Best returns the run with the extreme value of the metric among all runs
// with the given name.
func (s *Store) Best(name, metric string, higherBetter bool) (Run, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ids := s.byName[name]
	bestIdx, bestVal := -1, 0.0
	for _, id := range ids {
		r := s.runs[s.byID[id]]
		v, ok := r.Metrics[metric]
		if !ok {
			continue
		}
		if bestIdx < 0 || (higherBetter && v > bestVal) || (!higherBetter && v < bestVal) {
			bestIdx, bestVal = s.byID[id], v
		}
	}
	if bestIdx < 0 {
		return Run{}, fmt.Errorf("modeldb: no runs named %q with metric %q", name, metric)
	}
	return s.runs[bestIdx].clone(), nil
}

// Query returns all runs satisfying pred, in log order. pred runs under
// the store's read lock: it must not retain or mutate its argument and
// must not call back into the store.
func (s *Store) Query(pred func(Run) bool) []Run {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []Run
	for _, r := range s.runs {
		if pred(r) {
			out = append(out, r.clone())
		}
	}
	return out
}

// Lineage returns the chain from the run to its root ancestor, run first.
func (s *Store) Lineage(id int) ([]Run, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []Run
	seen := map[int]bool{}
	for id != -1 {
		if seen[id] {
			return nil, fmt.Errorf("modeldb: lineage cycle at run %d", id)
		}
		seen[id] = true
		r, err := s.getLocked(id)
		if err != nil {
			return nil, err
		}
		out = append(out, r.clone())
		id = r.ParentID
	}
	return out, nil
}

// NumRuns returns the number of logged runs.
func (s *Store) NumRuns() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.runs)
}

type persisted struct {
	NextID int   `json:"next_id"`
	Runs   []Run `json:"runs"`
}

// Save serializes the store as JSON. It holds the read lock for the whole
// encode, so a snapshot is internally consistent even with concurrent Logs.
func (s *Store) Save(w io.Writer) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(persisted{NextID: s.nextID, Runs: s.runs}); err != nil {
		return fmt.Errorf("modeldb: save: %w", err)
	}
	return nil
}

// Load deserializes a store previously written by Save.
func Load(r io.Reader) (*Store, error) {
	var p persisted
	if err := json.NewDecoder(r).Decode(&p); err != nil {
		return nil, fmt.Errorf("modeldb: load: %w", err)
	}
	s := NewStore()
	s.nextID = p.NextID
	for _, run := range p.Runs {
		s.byID[run.ID] = len(s.runs)
		s.byName[run.Name] = append(s.byName[run.Name], run.ID)
		s.runs = append(s.runs, run)
	}
	// Keep name→versions sorted by version for stable Latest semantics.
	for name := range s.byName {
		ids := s.byName[name]
		sort.Slice(ids, func(i, j int) bool {
			return s.runs[s.byID[ids[i]]].Version < s.runs[s.byID[ids[j]]].Version
		})
	}
	return s, nil
}

// DatasetHash fingerprints a dataset (features + labels) for lineage
// records: equal data hashes equally, any element change alters the hash.
func DatasetHash(x *la.Dense, y []float64) string {
	h := fnv.New64a()
	var buf [8]byte
	rows, cols := x.Dims()
	binary.LittleEndian.PutUint64(buf[:], uint64(rows))
	h.Write(buf[:])
	binary.LittleEndian.PutUint64(buf[:], uint64(cols))
	h.Write(buf[:])
	for _, v := range x.RawData() {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	for _, v := range y {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
