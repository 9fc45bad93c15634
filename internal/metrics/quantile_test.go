package metrics

import (
	"sync"
	"testing"
)

// TestHistogramFirstObserveRace is the regression test for the
// init-publication race: the old lazy ensureInit published init=true via
// CAS *before* storing the per-stripe min/max sentinels, so a concurrent
// first Observe could read the zero-value min=0 (pinning the histogram's
// min to 0 forever) or have its freshly installed extremum overwritten by
// the sentinel store. The current encoding has no init step at all; this
// hammers first-Observe from many goroutines (run under -race via
// RACE_PKGS) and asserts the extrema are exact every iteration.
func TestHistogramFirstObserveRace(t *testing.T) {
	withEnabled(t, func() {
		const goroutines = 16
		for iter := 0; iter < 300; iter++ {
			h := &Histogram{name: "test.hist.firstobserve"}
			start := make(chan struct{})
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					h.Observe(7)
				}()
			}
			close(start)
			wg.Wait()
			s := h.Snapshot()
			if s.Count != goroutines {
				t.Fatalf("iter %d: count = %d, want %d", iter, s.Count, goroutines)
			}
			if s.Min != 7 || s.Max != 7 {
				t.Fatalf("iter %d: min/max = %d/%d, want 7/7", iter, s.Min, s.Max)
			}
		}
	})
}

func TestHistogramZeroOnlyObservations(t *testing.T) {
	withEnabled(t, func() {
		h := &Histogram{name: "test.hist.zeros"}
		for i := 0; i < 5; i++ {
			h.Observe(0)
		}
		s := h.Snapshot()
		if s.Min != 0 || s.Max != 0 || s.Count != 5 {
			t.Fatalf("zeros: min/max/count = %d/%d/%d, want 0/0/5", s.Min, s.Max, s.Count)
		}
	})
}

func TestHistogramResetClearsExtrema(t *testing.T) {
	withEnabled(t, func() {
		h := NewHistogram("test.hist.resetextrema")
		h.Observe(3)
		h.Observe(1000)
		h.reset()
		h.Observe(42)
		s := h.Snapshot()
		if s.Min != 42 || s.Max != 42 {
			t.Fatalf("post-reset min/max = %d/%d, want 42/42", s.Min, s.Max)
		}
	})
}

func TestQuantileEmptyAndEdges(t *testing.T) {
	withEnabled(t, func() {
		var empty HistogramSnapshot
		if got := empty.Quantile(0.5); got != 0 {
			t.Fatalf("empty quantile = %v, want 0", got)
		}
		h := &Histogram{name: "test.hist.qedges"}
		h.Observe(10)
		h.Observe(100)
		h.Observe(1000)
		s := h.Snapshot()
		if got := s.Quantile(0); got != 10 {
			t.Fatalf("q=0 -> %v, want Min=10", got)
		}
		if got := s.Quantile(1); got != 1000 {
			t.Fatalf("q=1 -> %v, want Max=1000", got)
		}
		if got := s.Quantile(-1); got != 10 {
			t.Fatalf("q=-1 -> %v, want Min=10", got)
		}
		if got := s.Quantile(2); got != 1000 {
			t.Fatalf("q=2 -> %v, want Max=1000", got)
		}
	})
}

// Quantiles land inside the right bucket: with n copies of a single value,
// every quantile must come back inside that value's power-of-two bucket
// (clamped to the exact min/max, so here: exactly the value).
func TestQuantileSingleValue(t *testing.T) {
	withEnabled(t, func() {
		h := &Histogram{name: "test.hist.qsingle"}
		for i := 0; i < 1000; i++ {
			h.Observe(300)
		}
		s := h.Snapshot()
		for _, q := range []float64{0.01, 0.5, 0.99, 0.999} {
			if got := s.Quantile(q); got != 300 {
				t.Fatalf("q=%v -> %v, want 300 (min/max clamp)", q, got)
			}
		}
	})
}

// A two-point distribution checks rank arithmetic: 90 observations of a
// small value and 10 of a large one put p50 in the small bucket and p99 in
// the large one, an order of magnitude apart.
func TestQuantileTwoPointDistribution(t *testing.T) {
	withEnabled(t, func() {
		h := &Histogram{name: "test.hist.qtwopoint"}
		for i := 0; i < 90; i++ {
			h.Observe(100)
		}
		for i := 0; i < 10; i++ {
			h.Observe(10_000)
		}
		s := h.Snapshot()
		p50, p99 := s.Quantile(0.50), s.Quantile(0.99)
		// p50 falls in 100's bucket [64, 128); p99 in 10_000's [8192, 16384).
		if p50 < 64 || p50 >= 128 {
			t.Fatalf("p50 = %v, want within [64, 128)", p50)
		}
		if p99 < 8192 || p99 > 10_000 {
			t.Fatalf("p99 = %v, want within [8192, 10000]", p99)
		}
		if p99 <= p50 {
			t.Fatalf("p99 %v <= p50 %v", p99, p50)
		}
	})
}

func TestQuantileMonotone(t *testing.T) {
	withEnabled(t, func() {
		h := &Histogram{name: "test.hist.qmono"}
		for v := int64(1); v <= 4096; v++ {
			h.Observe(v)
		}
		s := h.Snapshot()
		qs := []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1}
		vals := make([]float64, len(qs))
		for i, q := range qs {
			vals[i] = s.Quantile(q)
		}
		for i := 1; i < len(vals); i++ {
			if vals[i] < vals[i-1] {
				t.Fatalf("quantiles not monotone: q=%v -> %v after q=%v -> %v",
					qs[i], vals[i], qs[i-1], vals[i-1])
			}
		}
		// Uniform 1..4096: the true median is ~2048; bucket resolution is a
		// factor of two, so accept [1024, 4096].
		if m := vals[4]; m < 1024 || m > 4096 {
			t.Fatalf("median of uniform 1..4096 = %v, want within [1024, 4096]", m)
		}
	})
}

func TestTimerSnapshotQuantile(t *testing.T) {
	withEnabled(t, func() {
		tm := NewTimer("test.timer.quantile")
		for i := 0; i < 100; i++ {
			tm.Observe(1000)
		}
		s := tm.Snapshot()
		if got := s.Quantile(0.99); got != 1000 {
			t.Fatalf("timer p99 = %v, want 1000", got)
		}
	})
}
