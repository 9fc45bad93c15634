// Package modelsel implements model-selection management in the style the
// paper surveys (MLbase/TuPAQ, Columbus's batched evaluation): declarative
// hyperparameter grids, bandit-based successive halving, batched training of
// many configurations in one data pass, and k-fold ridge cross-validation
// with shared-intermediate reuse.
package modelsel

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Config is one hyperparameter assignment.
type Config map[string]float64

// clone copies a config.
func (c Config) clone() Config {
	out := make(Config, len(c))
	for k, v := range c {
		out[k] = v
	}
	return out
}

// Model is an incrementally trainable model under evaluation. Train extends
// training by the given number of epochs; Score returns the validation
// metric (higher is better).
type Model interface {
	Train(epochs int) error
	Score() (float64, error)
	EpochsTrained() int
}

// Trainer instantiates models from configs.
type Trainer interface {
	New(cfg Config) (Model, error)
}

// Result reports one evaluated config.
type Result struct {
	Config Config
	Score  float64
	Epochs int
}

// SearchStats aggregates the work a search performed.
type SearchStats struct {
	TotalEpochs  int
	ModelsOpened int
}

// Grid expands the cross product of per-parameter value lists into configs,
// in deterministic (sorted-key) order.
func Grid(space map[string][]float64) []Config {
	keys := make([]string, 0, len(space))
	for k := range space {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	configs := []Config{{}}
	for _, k := range keys {
		var next []Config
		for _, base := range configs {
			for _, v := range space[k] {
				c := base.clone()
				c[k] = v
				next = append(next, c)
			}
		}
		configs = next
	}
	if len(space) == 0 {
		return nil
	}
	return configs
}

// EvaluateAll trains every config for the full epoch budget — the exhaustive
// baseline that successive halving is compared against.
func EvaluateAll(tr Trainer, configs []Config, epochs int) ([]Result, SearchStats, error) {
	if epochs <= 0 {
		return nil, SearchStats{}, fmt.Errorf("modelsel: epochs must be > 0")
	}
	var stats SearchStats
	out := make([]Result, 0, len(configs))
	for _, cfg := range configs {
		m, err := tr.New(cfg)
		if err != nil {
			return nil, stats, err
		}
		stats.ModelsOpened++
		if err := m.Train(epochs); err != nil {
			return nil, stats, err
		}
		stats.TotalEpochs += epochs
		score, err := m.Score()
		if err != nil {
			return nil, stats, err
		}
		out = append(out, Result{Config: cfg, Score: score, Epochs: epochs})
	}
	sortResults(out)
	return out, stats, nil
}

// SuccessiveHalving runs the TuPAQ-style bandit: all configs start with
// startEpochs of training; each round the top 1/eta survive and train eta×
// longer, until one remains or maxEpochs is reached per survivor.
func SuccessiveHalving(tr Trainer, configs []Config, startEpochs, maxEpochs int, eta float64) ([]Result, SearchStats, error) {
	if len(configs) == 0 {
		return nil, SearchStats{}, fmt.Errorf("modelsel: no configs")
	}
	if startEpochs <= 0 || maxEpochs < startEpochs {
		return nil, SearchStats{}, fmt.Errorf("modelsel: bad epoch budget %d..%d", startEpochs, maxEpochs)
	}
	if eta <= 1 {
		return nil, SearchStats{}, fmt.Errorf("modelsel: eta must be > 1, got %v", eta)
	}
	var stats SearchStats
	type arm struct {
		cfg   Config
		model Model
		score float64
	}
	arms := make([]*arm, 0, len(configs))
	for _, cfg := range configs {
		m, err := tr.New(cfg)
		if err != nil {
			return nil, stats, err
		}
		stats.ModelsOpened++
		arms = append(arms, &arm{cfg: cfg, model: m})
	}
	budget := startEpochs
	var retired []Result
	for {
		for _, a := range arms {
			add := budget - a.model.EpochsTrained()
			if add > 0 {
				if err := a.model.Train(add); err != nil {
					return nil, stats, err
				}
				stats.TotalEpochs += add
			}
			s, err := a.model.Score()
			if err != nil {
				return nil, stats, err
			}
			a.score = s
		}
		sort.Slice(arms, func(i, j int) bool { return arms[i].score > arms[j].score })
		if len(arms) == 1 || budget >= maxEpochs {
			break
		}
		keep := int(math.Ceil(float64(len(arms)) / eta))
		if keep < 1 {
			keep = 1
		}
		for _, a := range arms[keep:] {
			retired = append(retired, Result{Config: a.cfg, Score: a.score, Epochs: a.model.EpochsTrained()})
		}
		arms = arms[:keep]
		budget = int(math.Min(float64(maxEpochs), float64(budget)*eta))
	}
	out := make([]Result, 0, len(configs))
	for _, a := range arms {
		out = append(out, Result{Config: a.cfg, Score: a.score, Epochs: a.model.EpochsTrained()})
	}
	out = append(out, retired...)
	sortResults(out)
	return out, stats, nil
}

func sortResults(rs []Result) {
	sort.Slice(rs, func(i, j int) bool { return rs[i].Score > rs[j].Score })
}

// KFold splits [0,n) into k folds and returns (trainIdx, testIdx) pairs,
// shuffled by seed.
func KFold(n, k int, seed int64) ([][2][]int, error) {
	if k < 2 || k > n {
		return nil, fmt.Errorf("modelsel: k=%d out of range for n=%d", k, n)
	}
	perm := rand.New(rand.NewSource(seed)).Perm(n)
	folds := make([][]int, k)
	for i, p := range perm {
		folds[i%k] = append(folds[i%k], p)
	}
	out := make([][2][]int, k)
	for f := 0; f < k; f++ {
		var train []int
		for g := 0; g < k; g++ {
			if g != f {
				train = append(train, folds[g]...)
			}
		}
		out[f] = [2][]int{train, folds[f]}
	}
	return out, nil
}
