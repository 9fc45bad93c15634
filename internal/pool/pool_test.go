package pool

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestDoCoversRange: every index in [0,n) is visited exactly once, for a
// spread of n/grain combinations including n <= grain (serial fallback) and
// grain = 1 (maximal chunking).
func TestDoCoversRange(t *testing.T) {
	for _, tc := range []struct{ n, grain int }{
		{1, 1}, {7, 1}, {7, 3}, {7, 100}, {100, 7}, {1024, 64}, {1000, 1},
	} {
		visits := make([]atomic.Int32, tc.n)
		Do(tc.n, tc.grain, func(_, lo, hi int) {
			if lo < 0 || hi > tc.n || lo >= hi {
				t.Errorf("Do(%d,%d): bad chunk [%d,%d)", tc.n, tc.grain, lo, hi)
			}
			for i := lo; i < hi; i++ {
				visits[i].Add(1)
			}
		})
		for i := range visits {
			if got := visits[i].Load(); got != 1 {
				t.Fatalf("Do(%d,%d): index %d visited %d times", tc.n, tc.grain, i, got)
			}
		}
	}
}

// TestDoZeroAndNegative: degenerate ranges never invoke fn.
func TestDoZeroAndNegative(t *testing.T) {
	called := false
	Do(0, 4, func(_, _, _ int) { called = true })
	Do(-3, 4, func(_, _, _ int) { called = true })
	if called {
		t.Fatal("fn called for empty range")
	}
}

// withProcs runs f with GOMAXPROCS raised to n so the parallel path is
// exercised even on single-core machines (per-call parallelism follows the
// current GOMAXPROCS, not the value at pool start).
func withProcs(t *testing.T, n int, f func()) {
	t.Helper()
	old := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(old)
	f()
}

// TestDoSlotsExclusive: no two goroutines concurrently share a slot, and all
// slots are below Workers().
func TestDoSlotsExclusive(t *testing.T) {
	withProcs(t, 4, func() { testDoSlotsExclusive(t) })
}

func testDoSlotsExclusive(t *testing.T) {
	w := Workers()
	inUse := make([]atomic.Int32, w)
	Do(10_000, 1, func(slot, lo, hi int) {
		if slot < 0 || slot >= w {
			t.Errorf("slot %d out of range [0,%d)", slot, w)
			return
		}
		if !inUse[slot].CompareAndSwap(0, 1) {
			t.Errorf("slot %d used concurrently", slot)
			return
		}
		defer inUse[slot].Store(0)
		// A little work so chunks overlap in time when parallel.
		s := 0.0
		for i := lo; i < hi; i++ {
			s += float64(i)
		}
		_ = s
	})
}

// TestEvenDistribution is the regression test for the static-chunk imbalance:
// with rows barely exceeding the worker count, static chunking used to make
// ceil(rows/procs)-sized chunks, leaving the last chunk near-empty while
// others were double-sized. Dynamic scheduling must never hand out a chunk
// larger than grain, so work splits evenly no matter how rows relates to the
// worker count.
func TestEvenDistribution(t *testing.T) {
	withProcs(t, 4, func() { testEvenDistribution(t) })
}

func testEvenDistribution(t *testing.T) {
	for _, n := range []int{Workers() + 1, 2*Workers() - 1, 5, 17} {
		var mu sync.Mutex
		sizes := []int{}
		Do(n, 1, func(_, lo, hi int) {
			mu.Lock()
			sizes = append(sizes, hi-lo)
			mu.Unlock()
		})
		if len(sizes) != n {
			t.Fatalf("n=%d grain=1: got %d chunks, want %d", n, len(sizes), n)
		}
		for _, s := range sizes {
			if s != 1 {
				t.Fatalf("n=%d grain=1: chunk of size %d, want every chunk == grain", n, s)
			}
		}
	}
	// With a coarser grain, every chunk is still bounded by grain and the
	// spread between the largest and smallest chunk is at most grain — the
	// old static scheme could differ by a whole chunk multiple.
	const n, grain = 103, 10
	var mu sync.Mutex
	total, maxSz := 0, 0
	Do(n, grain, func(_, lo, hi int) {
		mu.Lock()
		total += hi - lo
		if hi-lo > maxSz {
			maxSz = hi - lo
		}
		mu.Unlock()
	})
	if total != n {
		t.Fatalf("chunks cover %d of %d items", total, n)
	}
	if maxSz > grain {
		t.Fatalf("chunk size %d exceeds grain %d", maxSz, grain)
	}
}

// TestNestedDo: Do from inside Do must not deadlock and must still cover the
// inner range (the inner call runs inline when no helpers are idle).
func TestNestedDo(t *testing.T) {
	withProcs(t, 4, func() { testNestedDo(t) })
}

func testNestedDo(t *testing.T) {
	var outer, inner atomic.Int64
	Do(64, 1, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			outer.Add(1)
			Do(32, 4, func(_, l, h int) {
				inner.Add(int64(h - l))
			})
		}
	})
	if outer.Load() != 64 || inner.Load() != 64*32 {
		t.Fatalf("outer=%d inner=%d, want 64 and %d", outer.Load(), inner.Load(), 64*32)
	}
}

// TestDoReuseIsClean: back-to-back jobs (job structs are recycled) never leak
// state between runs.
func TestDoReuseIsClean(t *testing.T) {
	for iter := 0; iter < 200; iter++ {
		var sum atomic.Int64
		n := 1 + iter%17
		Do(n, 2, func(_, lo, hi int) {
			sum.Add(int64(hi - lo))
		})
		if got := sum.Load(); got != int64(n) {
			t.Fatalf("iter %d: covered %d of %d", iter, got, n)
		}
	}
}

func TestGrain(t *testing.T) {
	if g := Grain(0, 100); g != 1 {
		t.Errorf("Grain(0,100)=%d, want 1", g)
	}
	for _, tc := range []struct{ n, itemWork int }{
		{10, 1}, {1000, 1}, {1000, 1 << 20}, {1 << 20, 8}, {3, 1 << 30},
	} {
		g := Grain(tc.n, tc.itemWork)
		if g < 1 || g > tc.n {
			t.Errorf("Grain(%d,%d)=%d out of [1,%d]", tc.n, tc.itemWork, g, tc.n)
		}
	}
	// Heavy items must split into at least a few chunks per worker so
	// dynamic scheduling has room to rebalance.
	if g, lim := Grain(100, 1<<20), (100+Workers()-1)/Workers(); g > lim {
		t.Errorf("Grain(100, 1<<20)=%d, want <= %d (at least one chunk per worker)", g, lim)
	}
}

func TestScratchBasics(t *testing.T) {
	if buf := GetF64(0); buf != nil {
		t.Errorf("GetF64(0) = %v, want nil", buf)
	}
	buf := GetF64(100)
	if len(buf) != 100 {
		t.Fatalf("GetF64(100) len %d", len(buf))
	}
	for i := range buf {
		buf[i] = 7
	}
	PutF64(buf)
	z := GetF64Zeroed(100)
	for i, v := range z {
		if v != 0 {
			t.Fatalf("GetF64Zeroed: z[%d]=%v", i, v)
		}
	}
	PutF64(z)
	// Oversized requests bypass the pool but still work.
	big := GetF64(1<<scratchMaxBits + 1)
	if len(big) != 1<<scratchMaxBits+1 {
		t.Fatalf("oversized GetF64 len %d", len(big))
	}
	PutF64(big) // dropped, must not panic
	// Foreign buffers with non-class capacities are silently dropped.
	PutF64(make([]float64, 100))
}

// TestScratchSteadyStateAllocs: after warm-up, a Get/Put cycle performs no
// allocations — the property the opt/la hot loops rely on.
func TestScratchSteadyStateAllocs(t *testing.T) {
	for i := 0; i < 4; i++ {
		PutF64(GetF64(4096)) // warm the class freelist
	}
	allocs := testing.AllocsPerRun(100, func() {
		b := GetF64(4096)
		PutF64(b)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Get/Put allocates %v times per run, want 0", allocs)
	}
}

// TestDoParallelAtHigherGOMAXPROCS exercises the multi-worker path even on a
// single-core machine by raising GOMAXPROCS; note the pool's worker count is
// fixed at first use, so this only widens the schedulable set.
func TestDoParallelAtHigherGOMAXPROCS(t *testing.T) {
	old := runtime.GOMAXPROCS(0)
	runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	visits := make([]atomic.Int32, 50_000)
	Do(len(visits), 128, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			visits[i].Add(1)
		}
	})
	for i := range visits {
		if visits[i].Load() != 1 {
			t.Fatalf("index %d visited %d times", i, visits[i].Load())
		}
	}
}

func TestIntScratchBasics(t *testing.T) {
	if buf := GetInt(0); buf != nil {
		t.Errorf("GetInt(0) = %v, want nil", buf)
	}
	buf := GetInt(100)
	if len(buf) != 100 {
		t.Fatalf("GetInt(100) len %d", len(buf))
	}
	for i := range buf {
		buf[i] = 7
	}
	PutInt(buf)
	// Oversized requests bypass the pool but still work.
	big := GetInt(1<<scratchMaxBits + 1)
	if len(big) != 1<<scratchMaxBits+1 {
		t.Fatalf("oversized GetInt len %d", len(big))
	}
	PutInt(big) // dropped, must not panic
	// Foreign buffers with non-class capacities are silently dropped.
	PutInt(make([]int, 100))
}

// TestIntScratchSteadyStateAllocs: the int freelist mirrors the float64 one —
// a warm Get/Put cycle must not allocate (the factorized key-composition
// kernels rely on this).
func TestIntScratchSteadyStateAllocs(t *testing.T) {
	for i := 0; i < 4; i++ {
		PutInt(GetInt(4096))
	}
	allocs := testing.AllocsPerRun(100, func() {
		b := GetInt(4096)
		PutInt(b)
	})
	if allocs != 0 {
		t.Fatalf("steady-state GetInt/PutInt allocates %v times per run, want 0", allocs)
	}
}

// TestIntScratchReuse: a returned buffer is handed back on the next Get of
// the same class.
func TestIntScratchReuse(t *testing.T) {
	a := GetInt(512)
	PutInt(a)
	b := GetInt(512)
	if &a[0] != &b[0] {
		t.Error("GetInt did not reuse the returned buffer")
	}
	PutInt(b)
}

// TestReduceInto: the parallel-reduction primitive gives the serial answer at
// GOMAXPROCS 1 and N, hands concurrent slots private accumulators, allocates
// nothing per call beyond its slot table and the closure it gives Do, and
// returns every scratch accumulator it borrowed.
func TestReduceInto(t *testing.T) {
	const n, width, grain = 40_000, 300, 64
	want := make([]float64, width)
	for i := 0; i < n; i++ {
		want[i%width] += float64(i) // integer-valued: exact in any order
	}
	var mu sync.Mutex
	accs := map[*float64]bool{}
	var holdForSecondSlot atomic.Bool
	body := func(acc []float64, lo, hi int) {
		mu.Lock()
		accs[&acc[0]] = true
		mu.Unlock()
		for deadline := time.Now().Add(2 * time.Second); holdForSecondSlot.Load() && time.Now().Before(deadline); runtime.Gosched() {
			mu.Lock()
			joined := len(accs) > 1
			mu.Unlock()
			if joined {
				break
			}
		}
		for i := lo; i < hi; i++ {
			acc[i%width] += float64(i)
		}
	}
	dst := make([]float64, width)
	run := func(when string) {
		for j := range dst {
			dst[j] = 0
		}
		ReduceInto(dst, n, grain, body)
		for j := range want {
			if dst[j] != want[j] {
				t.Fatalf("%s: dst[%d] = %v, want %v", when, j, dst[j], want[j])
			}
		}
	}
	withProcs(t, 1, func() { run("GOMAXPROCS=1") })
	if len(accs) != 1 {
		t.Fatalf("serial run used %d accumulators, want dst alone", len(accs))
	}
	withProcs(t, 4, func() {
		holdForSecondSlot.Store(true)
		run("GOMAXPROCS=4")
		holdForSecondSlot.Store(false)
		if len(accs) < 2 {
			t.Fatal("parallel run never handed a second slot its own accumulator")
		}

		// Steady state: a leaked accumulator would cost a fresh buffer per
		// helper slot per call. (testing.AllocsPerRun pins GOMAXPROCS to 1,
		// so the parallel regime is counted by hand.)
		const runs = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run("steady state")
		}
		runtime.ReadMemStats(&after)
		if got := after.Mallocs - before.Mallocs; got > 2*runs+runs/2 {
			t.Fatalf("%d allocations over %d calls, want the slot table and Do closure only", got, runs)
		}

		// Poison everything the reductions released: a slot handed back while
		// still in use, or reused without zeroing, surfaces as NaN.
		var grabbed [][]float64
		for i := 0; i < 64; i++ {
			buf := GetF64(width)
			for j := range buf {
				buf[j] = math.NaN()
			}
			grabbed = append(grabbed, buf)
		}
		for _, buf := range grabbed {
			PutF64(buf)
		}
		run("after poisoning the pool")
	})
}

// TestSumChunks: the reproducible reduction evaluates body on exactly the
// fixed chunks of [0,n), adds the results in chunk order — values chosen so
// that other associations round differently — and returns the same bits at
// every core count and on every repeat.
func TestSumChunks(t *testing.T) {
	const chunk = 100
	// 1, then many 2⁻⁵³s: added to 1 one at a time each is rounded away;
	// added among themselves first they survive. Chunk-order summation of
	// per-chunk sums gives one specific answer, computed serially here.
	val := func(i int) float64 {
		if i == 0 {
			return 1
		}
		return 0x1p-53 * float64(1+i%3)
	}
	for _, n := range []int{0, 1, chunk - 1, chunk, chunk + 1, 7*chunk + 13} {
		want := 0.0
		if n <= chunk {
			for i := 0; i < n; i++ {
				want += val(i)
			}
		} else {
			for lo := 0; lo < n; lo += chunk {
				part := 0.0
				for i := lo; i < min(lo+chunk, n); i++ {
					part += val(i)
				}
				want += part
			}
		}
		for _, procs := range []int{1, 2, 4} {
			withProcs(t, procs, func() {
				for rep := 0; rep < 20; rep++ {
					var mu sync.Mutex
					seen := map[[2]int]bool{}
					got := SumChunks(n, chunk, func(lo, hi int) float64 {
						mu.Lock()
						seen[[2]int{lo, hi}] = true
						mu.Unlock()
						part := 0.0
						for i := lo; i < hi; i++ {
							part += val(i)
						}
						return part
					})
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("n=%d procs=%d rep=%d: sum %x, chunk-order sum %x", n, procs, rep, math.Float64bits(got), math.Float64bits(want))
					}
					wantChunks := max(1, (n+chunk-1)/chunk)
					if len(seen) != wantChunks {
						t.Fatalf("n=%d procs=%d: body saw %d distinct chunks, want %d", n, procs, len(seen), wantChunks)
					}
					for c := range seen {
						if n > chunk && (c[0]%chunk != 0 || c[1] != min(c[0]+chunk, n)) {
							t.Fatalf("n=%d: chunk [%d,%d) is not on the fixed grid", n, c[0], c[1])
						}
					}
				}
			})
		}
	}
}
