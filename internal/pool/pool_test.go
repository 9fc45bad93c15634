package pool

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestDoCoversRange: every index in [0,n) is visited exactly once, for a
// spread of n/grain combinations including n <= grain (serial fallback) and
// grain = 1 (maximal chunking).
func TestDoCoversRange(t *testing.T) {
	for _, tc := range []struct{ n, grain int }{
		{1, 1}, {7, 1}, {7, 3}, {7, 100}, {100, 7}, {1024, 64}, {1000, 1},
	} {
		visits := make([]atomic.Int32, tc.n)
		Do(tc.n, tc.grain, func(lo, hi int) {
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
	Do(0, 4, func(_, _ int) { called = true })
	Do(-3, 4, func(_, _ int) { called = true })
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
		Do(n, 1, func(lo, hi int) {
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
	Do(n, grain, func(lo, hi int) {
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
	Do(64, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			outer.Add(1)
			Do(32, 4, func(l, h int) {
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
		Do(n, 2, func(lo, hi int) {
			sum.Add(int64(hi - lo))
		})
		if got := sum.Load(); got != int64(n) {
			t.Fatalf("iter %d: covered %d of %d", iter, got, n)
		}
	}
}

func TestGrain(t *testing.T) {
	if g := Grain(0, 100, 0); g != 1 {
		t.Errorf("Grain(0,100,0)=%d, want 1", g)
	}
	for _, tc := range []struct{ n, itemWork, chunkWork int }{
		{10, 1, 0}, {1000, 1, 0}, {1000, 1 << 20, 0}, {1 << 20, 8, 0}, {3, 1 << 30, 0}, {5000, 2, 1 << 20},
	} {
		g := Grain(tc.n, tc.itemWork, tc.chunkWork)
		if g < 1 || g > tc.n {
			t.Errorf("Grain(%d,%d,%d)=%d out of [1,%d]", tc.n, tc.itemWork, tc.chunkWork, g, tc.n)
		}
		// Every chunk but a whole-range one spans a multiple of eight
		// items, so eight-lane kernels see the same lanes in every chunk.
		if g != tc.n && g%8 != 0 {
			t.Errorf("Grain(%d,%d,%d)=%d is not a multiple of 8", tc.n, tc.itemWork, tc.chunkWork, g)
		}
	}
	// Heavy items split into about the fixed target of 32 chunks, whatever
	// the pool's size, so dynamic scheduling has room to rebalance; 100/32
	// rounds up to one chunk of eight.
	if g := Grain(100, 1<<20, 0); g != 8 {
		t.Errorf("Grain(100, 1<<20, 0)=%d, want 8 (32 chunks, rounded up to 8 items)", g)
	}
	if g := Grain(1000, 1<<20, 0); g != 32 {
		t.Errorf("Grain(1000, 1<<20, 0)=%d, want 32 (ceil(1000/32) rounded up to 8 items)", g)
	}
	// Light items keep at least 2¹⁴ scalar ops per chunk.
	if g := Grain(1<<20, 1, 0); g != 1<<15 {
		t.Errorf("Grain(1<<20, 1, 0)=%d, want %d (32 chunks)", g, 1<<15)
	}
	if g := Grain(1<<16, 1, 0); g != 1<<14 {
		t.Errorf("Grain(1<<16, 1, 0)=%d, want %d (the minimum chunk work)", g, 1<<14)
	}
	if g := Grain(10000, 3, 0); g != 5464 {
		t.Errorf("Grain(10000, 3, 0)=%d, want 5464 (2¹⁴/3 rounded up to 8 items)", g)
	}
	// The fixed-cost floor: a chunk does at least 8× what entering it
	// costs. 2-op items behind a 10 000-entry partial take 40 000-item
	// chunks, above both the 32-chunk target and the minimum chunk work.
	if g := Grain(1<<20, 2, 10000); g != 40000 {
		t.Errorf("Grain(1<<20, 2, 10000)=%d, want 40000 (8 × the chunk's fixed cost)", g)
	}
	if g := Grain(1<<20, 2, 0); g != 1<<15 {
		t.Errorf("Grain(1<<20, 2, 0)=%d, want %d: no fixed cost, no floor", g, 1<<15)
	}
	// The grid is the shape's alone: the gate, the core count and the
	// pool's size do not move it.
	for _, procs := range []int{1, 2, 4} {
		withProcs(t, procs, func() {
			for _, tc := range []struct{ n, itemWork int }{
				{max(parallelWork-1, 1), 1}, {parallelWork, 1}, {max(parallelWork/40-1, 1), 40}, {parallelWork/40 + 1, 40},
			} {
				want := max((tc.n+31)/32, (minChunkWork+tc.itemWork-1)/tc.itemWork)
				want = min((want+7)&^7, tc.n)
				if g := Grain(tc.n, tc.itemWork, 0); g != want {
					t.Errorf("procs=%d: Grain(%d,%d,0)=%d, want %d on either side of the gate", procs, tc.n, tc.itemWork, g, want)
				}
			}
		})
	}
}

// TestParallelIsTheGate: Parallel holds from parallelWork scalar ops up, and
// never at GOMAXPROCS 1.
func TestParallelIsTheGate(t *testing.T) {
	withProcs(t, 2, func() {
		if Parallel(parallelWork - 1) {
			t.Errorf("Parallel(%d) under the gate", parallelWork-1)
		}
		if !Parallel(parallelWork) {
			t.Errorf("Parallel(%d) at the gate is false", parallelWork)
		}
	})
	withProcs(t, 1, func() {
		if Parallel(1 << 40) {
			t.Error("Parallel at GOMAXPROCS 1")
		}
	})
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
	Do(len(visits), 128, func(lo, hi int) {
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

// TestSumChunks: Reduce runs body on exactly the chunks of Grain's grid,
// sums chunk 0 in place and every later chunk through a zeroed partial added
// in chunk-index order — with values chosen so that other associations round
// differently — and returns the same bits on every repeat at GOMAXPROCS 1, 2
// and 4, as does ReduceSerial. The sizes include the two either side of the
// gate, each several chunks long, so Reduce runs the grid on the calling
// goroutine just below it and on the workers just above, with the same bits.
// With a one-element dst the serial reference below is the chunk-order sum
// of chunk sums.
func TestSumChunks(t *testing.T) {
	// 163-op items: a 104-item chunk (2¹⁴/163 rounded up to eight items),
	// and the gate falls between 804 and 805 items, eight chunks each. (The
	// clamp keeps the test cheap should the gate move.)
	const itemWork = 163
	chunk := Grain(1000, itemWork, 3)
	if chunk != 104 {
		t.Fatalf("grid of %d items, want 104", chunk)
	}
	below := min(max((parallelWork-1)/itemWork, 1), 16*chunk)
	above := below + 1
	// Ones, then many 2⁻⁵³s: added to a one one at a time each is rounded
	// away; summed among themselves first they survive. So where a partial
	// starts and when it joins dst both show in the result.
	val := func(i int) float64 {
		if i < 3 {
			return 1
		}
		return 0x1p-53 * float64(1+i%3)
	}
	body := func(width int) func(acc []float64, lo, hi int) {
		return func(acc []float64, lo, hi int) {
			for i := lo; i < hi; i++ {
				acc[i%width] += val(i)
			}
		}
	}
	serial := func(n, width int) []float64 {
		dst := make([]float64, width)
		body(width)(dst, 0, min(n, chunk))
		for lo := chunk; lo < n; lo += chunk {
			part := make([]float64, width)
			body(width)(part, lo, min(lo+chunk, n))
			for j, v := range part {
				dst[j] += v
			}
		}
		return dst
	}
	Reduce(nil, 0, itemWork, func([]float64, int, int) { t.Fatal("body called for an empty range") })
	ReduceSerial(nil, 0, itemWork, func([]float64, int, int) { t.Fatal("body called for an empty range") })
	for _, width := range []int{1, 3} {
		for _, n := range []int{1, chunk - 1, chunk, chunk + 1, below, above, 11*chunk + 13} {
			if Grain(n, itemWork, width) != min(chunk, n) {
				t.Fatalf("n=%d width=%d: grid of %d items, want %d", n, width, Grain(n, itemWork, width), chunk)
			}
			want := serial(n, width)
			for _, procs := range []int{1, 2, 4} {
				withProcs(t, procs, func() {
					dst := make([]float64, width)
					ReduceSerial(dst, n, itemWork, body(width))
					for j := range dst {
						if math.Float64bits(dst[j]) != math.Float64bits(want[j]) {
							t.Fatalf("width=%d n=%d procs=%d: ReduceSerial dst[%d] = %x, Reduce's grid gives %x",
								width, n, procs, j, math.Float64bits(dst[j]), math.Float64bits(want[j]))
						}
					}
					for rep := 0; rep < 20; rep++ {
						var mu sync.Mutex
						seen := map[[2]int]int{}
						dst := make([]float64, width)
						Reduce(dst, n, itemWork, func(acc []float64, lo, hi int) {
							mu.Lock()
							seen[[2]int{lo, hi}]++
							mu.Unlock()
							body(width)(acc, lo, hi)
						})
						for j := range dst {
							if math.Float64bits(dst[j]) != math.Float64bits(want[j]) {
								t.Fatalf("width=%d n=%d procs=%d rep=%d: dst[%d] = %x, chunk-order sum %x",
									width, n, procs, rep, j, math.Float64bits(dst[j]), math.Float64bits(want[j]))
							}
						}
						if len(seen) != (n+chunk-1)/chunk {
							t.Fatalf("n=%d procs=%d: body saw %d distinct chunks, want %d", n, procs, len(seen), (n+chunk-1)/chunk)
						}
						for c, k := range seen {
							if k != 1 || c[0]%chunk != 0 || c[1] != min(c[0]+chunk, n) {
								t.Fatalf("n=%d: chunk [%d,%d) ran %d times; want once, on the fixed grid", n, c[0], c[1], k)
							}
						}
					}
				})
			}
		}
	}
}

// TestReduceInto: Reduce into a wide dst gives the exact answer, zeroes and
// recycles its partials — rerun after poisoning the scratch pool — and
// allocates nothing per call in steady state. Allocations are counted by hand
// because testing.AllocsPerRun pins GOMAXPROCS to 1. Reduce's own state is
// recycled too; a partial that is not released would cost a fresh buffer per
// chunk, 31 per call here.
func TestReduceInto(t *testing.T) {
	// 1024-op items: 4000 of them are far above the gate and cut into 32
	// chunks of 128.
	const itemWork = 1 << 10
	withProcs(t, 4, func() {
		const n, width = 4000, 300
		if g := Grain(n, itemWork, width); g != 128 {
			t.Fatalf("grid of %d items, want 128", g)
		}
		want := make([]float64, width)
		for i := 0; i < n; i++ {
			want[i%width] += float64(i) // integer-valued: exact in any order
		}
		dst := make([]float64, width)
		run := func(when string) {
			for j := range dst {
				dst[j] = 0
			}
			Reduce(dst, n, itemWork, func(acc []float64, lo, hi int) {
				for i := lo; i < hi; i++ {
					acc[i%width] += float64(i)
				}
			})
			for j := range want {
				if dst[j] != want[j] {
					t.Fatalf("%s: dst[%d] = %v, want %v", when, j, dst[j], want[j])
				}
			}
		}
		run("warm-up")
		const runs = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run("steady state")
		}
		runtime.ReadMemStats(&after)
		if got := after.Mallocs - before.Mallocs; got > runs {
			t.Fatalf("%d allocations over %d calls, want none per call beyond the odd pool refill", got, runs)
		}
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
