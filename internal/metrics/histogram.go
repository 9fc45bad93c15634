package metrics

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// numBuckets covers power-of-two buckets for int64 observations: bucket i
// counts values v with bits.Len64(v) == i, i.e. v in [2^(i-1), 2^i). For
// nanosecond durations that spans sub-ns to ~4.6 hours before saturating
// into the top bucket — wide enough for every engine operation.
const numBuckets = 44

// histStripe is one writer stripe of a histogram: a count/sum pair, the
// power-of-two bucket counts, and min/max cells. Everything is a plain
// atomic int64, so concurrent observers never coordinate beyond the cache
// coherence of their own stripe.
//
// Observations are clamped non-negative (Observe), which lets both extrema
// make the *zero value* mean "empty" — no sentinel installation, and
// therefore no init-publication ordering to get wrong (an earlier design
// published an init flag before storing per-stripe sentinels; a concurrent
// first Observe could then read the zero min and pin it to 0 forever):
//
//   - minC stores math.MaxInt64 - min. A zeroed cell decodes to
//     MaxInt64, the identity for a min-merge, and a tighter (smaller)
//     minimum is a *larger* stored value, so the install condition is a
//     plain "is mine larger" CAS.
//   - max stores the maximum directly. A zeroed cell is 0, the identity
//     for a max-merge over non-negative observations.
type histStripe struct {
	count   atomic.Int64
	sum     atomic.Int64
	minC    atomic.Int64 // math.MaxInt64 - min; 0 (decoding to MaxInt64) when empty
	max     atomic.Int64 // max; 0 when empty (exact: observations are >= 0)
	buckets [numBuckets]atomic.Int64
	_       [48]byte // keep stripes from sharing the trailing cache line
}

func (s *histStripe) observe(v int64) {
	s.count.Add(1)
	s.sum.Add(v)
	b := bits.Len64(uint64(v))
	if b >= numBuckets {
		b = numBuckets - 1
	}
	s.buckets[b].Add(1)
	// Min/max via CAS races: losing a race means another writer already
	// installed a tighter bound, so retry until ours is not an improvement.
	c := math.MaxInt64 - v
	for {
		cur := s.minC.Load()
		if c <= cur || s.minC.CompareAndSwap(cur, c) {
			break
		}
	}
	for {
		cur := s.max.Load()
		if v <= cur || s.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// Histogram records int64 observations (the engine convention is
// nanoseconds for durations, raw units otherwise) into lock-striped
// power-of-two buckets. Negative observations are clamped to 0.
type Histogram struct {
	name    string
	stripes [numStripes]histStripe
}

// Observe records v. No-op when collection is disabled. Never allocates.
// The zero Histogram value is ready to use: stripe extrema encode "empty"
// as their zero value (see histStripe), so there is no lazy init step.
//
//dmml:noalloc
func (h *Histogram) Observe(v int64) {
	if !enabled.Load() {
		return
	}
	if v < 0 {
		v = 0
	}
	h.stripes[stripeIdx()].observe(v)
}

// HistogramSnapshot is a merged, read-only view of a histogram.
type HistogramSnapshot struct {
	Name  string  `json:"name"`
	Count int64   `json:"count"`
	Sum   int64   `json:"sum"`
	Min   int64   `json:"min"` // 0 when Count == 0
	Max   int64   `json:"max"` // 0 when Count == 0
	Mean  float64 `json:"mean"`
	// Buckets[i] counts observations v with 2^(i-1) <= v < 2^i (i = 0
	// counts v == 0). Trailing empty buckets are trimmed.
	Buckets []int64 `json:"buckets"`
}

// Snapshot merges the stripes into one consistent-enough view. Concurrent
// writers may straddle the merge; totals are still exact once writers
// quiesce, which is how every reporting path uses it.
func (h *Histogram) Snapshot() HistogramSnapshot {
	snap := HistogramSnapshot{Name: h.name, Min: math.MaxInt64, Max: math.MinInt64}
	var buckets [numBuckets]int64
	for i := range h.stripes {
		s := &h.stripes[i]
		snap.Count += s.count.Load()
		snap.Sum += s.sum.Load()
		// Empty stripes decode to the merge identities (min MaxInt64, max 0),
		// so no emptiness check is needed per stripe.
		if m := math.MaxInt64 - s.minC.Load(); m < snap.Min {
			snap.Min = m
		}
		if m := s.max.Load(); m > snap.Max {
			snap.Max = m
		}
		for b := range buckets {
			buckets[b] += s.buckets[b].Load()
		}
	}
	if snap.Count == 0 {
		snap.Min, snap.Max = 0, 0
	} else {
		snap.Mean = float64(snap.Sum) / float64(snap.Count)
	}
	last := 0
	for b, n := range buckets {
		if n != 0 {
			last = b + 1
		}
	}
	snap.Buckets = append([]int64(nil), buckets[:last]...)
	return snap
}

func (h *Histogram) reset() {
	for i := range h.stripes {
		s := &h.stripes[i]
		s.count.Store(0)
		s.sum.Store(0)
		s.minC.Store(0)
		s.max.Store(0)
		for b := range s.buckets {
			s.buckets[b].Store(0)
		}
	}
}

// Timer is a duration histogram that additionally tracks self time — the
// portion of an operation's wall time not spent inside child spans. Plain
// stopwatch observations count fully as self time; the span API (span.go)
// splits total and self so an operator table can avoid double-charging
// parents for their children.
type Timer struct {
	name string
	hist Histogram
	self [numStripes]padCell // self-time nanoseconds
}

// Observe records one operation of duration d (all of it self time).
// No-op when collection is disabled. Never allocates.
func (t *Timer) Observe(d time.Duration) { t.observeSpan(d, d) }

func (t *Timer) observeSpan(total, self time.Duration) {
	if !enabled.Load() {
		return
	}
	if total < 0 {
		total = 0
	}
	if self < 0 {
		self = 0
	}
	t.hist.stripes[stripeIdx()].observe(int64(total))
	t.self[stripeIdx()].v.Add(int64(self))
}

// Stopwatch is an in-flight timing started by Timer.Start. The zero value
// (returned while collection is disabled) makes Stop a no-op.
type Stopwatch struct {
	t     *Timer
	start time.Time
}

// Start begins timing one operation. When collection is disabled it reads
// no clock and returns the zero Stopwatch. Never allocates.
func (t *Timer) Start() Stopwatch {
	if !enabled.Load() {
		return Stopwatch{}
	}
	return Stopwatch{t: t, start: time.Now()}
}

// Stop records the elapsed time since Start. No-op on the zero Stopwatch.
func (sw Stopwatch) Stop() {
	if sw.t == nil {
		return
	}
	sw.t.Observe(time.Since(sw.start))
}

// TimerSnapshot is a merged, read-only view of a timer.
type TimerSnapshot struct {
	Name    string  `json:"name"`
	Count   int64   `json:"count"`
	TotalNs int64   `json:"total_ns"`
	SelfNs  int64   `json:"self_ns"`
	MinNs   int64   `json:"min_ns"`
	MaxNs   int64   `json:"max_ns"`
	MeanNs  float64 `json:"mean_ns"`
	Buckets []int64 `json:"buckets"`
}

// Snapshot merges the stripes into one view.
func (t *Timer) Snapshot() TimerSnapshot {
	h := t.hist.Snapshot()
	var self int64
	for i := range t.self {
		self += t.self[i].v.Load()
	}
	return TimerSnapshot{
		Name:    t.name,
		Count:   h.Count,
		TotalNs: h.Sum,
		SelfNs:  self,
		MinNs:   h.Min,
		MaxNs:   h.Max,
		MeanNs:  h.Mean,
		Buckets: h.Buckets,
	}
}

func (t *Timer) reset() {
	t.hist.reset()
	for i := range t.self {
		t.self[i].v.Store(0)
	}
}
