// Package trace is the benchmark-side span recorder: the benchmark wraps its
// calls into each engine layer in spans (name, start, end, parent, job or
// request id), keeps them in memory, and writes them out when the run ends.
// Nothing inside the engine records spans; that is a later change.
//
// A Recorder hands out Lanes. A Lane belongs to one goroutine and takes no
// lock; parents are spans of the same lane. Every method is a no-op on a nil
// Recorder or Lane, so the untraced run passes nil and pays one comparison.
package trace

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer.
type Span struct {
	Name   string `json:"name"`
	Lane   int    `json:"lane"`
	Parent int    `json:"parent"` // index within the lane, -1 for a root
	ID     int64  `json:"id"`     // job or request the span belongs to
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Recorder collects the lanes of one traced run.
type Recorder struct {
	t0    time.Time
	mu    sync.Mutex
	lanes []*Lane
}

// New starts a recorder; span times are nanoseconds since this call.
func New() *Recorder { return &Recorder{t0: time.Now()} }

// Lane returns a new lane for the calling goroutine.
func (r *Recorder) Lane() *Lane {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	l := &Lane{r: r, n: len(r.lanes)}
	r.lanes = append(r.lanes, l)
	return l
}

// Lane is a single goroutine's span list.
type Lane struct {
	r     *Recorder
	n     int
	spans []Span
}

// Begin opens a span under parent (-1 for none) and returns its index.
func (l *Lane) Begin(name string, parent int, id int64) int {
	if l == nil {
		return -1
	}
	l.spans = append(l.spans, Span{Name: name, Lane: l.n, Parent: parent, ID: id, Start: int64(time.Since(l.r.t0))})
	return len(l.spans) - 1
}

// End closes the span Begin returned.
func (l *Lane) End(i int) {
	if l == nil {
		return
	}
	l.spans[i].End = int64(time.Since(l.r.t0))
}

// Add records a span whose start and end were taken elsewhere (a request's
// due and receive times, a gap between two callbacks).
func (l *Lane) Add(name string, parent int, id int64, start, end time.Time) int {
	if l == nil {
		return -1
	}
	l.spans = append(l.spans, Span{Name: name, Lane: l.n, Parent: parent, ID: id,
		Start: int64(start.Sub(l.r.t0)), End: int64(end.Sub(l.r.t0))})
	return len(l.spans) - 1
}

// Stat aggregates the spans of one name.
type Stat struct {
	Name    string `json:"name"`
	Count   int64  `json:"count"`
	TotalNs int64  `json:"total_ns"`
	// SelfNs is total time minus the part of each span's interval that its
	// child spans cover.
	SelfNs int64 `json:"self_ns"`
}

// Summary returns per-name totals and self times, largest self time first.
// Call it only after every lane's goroutine has finished.
func (r *Recorder) Summary() []Stat {
	if r == nil {
		return nil
	}
	byName := map[string]*Stat{}
	for _, l := range r.lanes {
		self := selfTimes(l.spans)
		for i, s := range l.spans {
			st := byName[s.Name]
			if st == nil {
				st = &Stat{Name: s.Name}
				byName[s.Name] = st
			}
			st.Count++
			st.TotalNs += s.End - s.Start
			st.SelfNs += self[i]
		}
	}
	out := make([]Stat, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SelfNs != out[j].SelfNs {
			return out[i].SelfNs > out[j].SelfNs
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// selfTimes returns, per span, its duration minus the union of its children's
// intervals clipped to the span.
func selfTimes(spans []Span) []int64 {
	kids := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].Start < spans[ks[b]].Start })
		covered := s.Start
		for _, k := range ks {
			lo, hi := max(spans[k].Start, covered), min(spans[k].End, s.End)
			if hi > lo {
				self[i] -= hi - lo
				covered = hi
			}
		}
	}
	return self
}

// Stats indexes Summary by span name.
func (r *Recorder) Stats() map[string]Stat {
	m := map[string]Stat{}
	for _, st := range r.Summary() {
		m[st.Name] = st
	}
	return m
}

// WriteJSON writes every span and the summary to path.
func (r *Recorder) WriteJSON(path string) error {
	if r == nil {
		return nil
	}
	var doc struct {
		Summary []Stat `json:"summary"`
		Spans   []Span `json:"spans"`
	}
	doc.Summary = r.Summary()
	for _, l := range r.lanes {
		doc.Spans = append(doc.Spans, l.spans...)
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("trace: encode: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("trace: write: %w", err)
	}
	return nil
}
