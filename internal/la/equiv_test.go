package la

// Equivalence properties for the pooled/blocked kernel engine: every fast
// path (dynamic-chunk parallel, cache-blocked packed GEMM, k-split GEMM,
// tiled Gram, scratch-backed Into variants) must agree with a plain serial
// reference, at GOMAXPROCS=1 and at GOMAXPROCS=N. Floating-point sums are
// reassociated by blocking/partials, so comparisons use a tolerance scaled
// to the reduction length.

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"dmml/internal/pool"
)

// refMatMul is the obviously-correct triple loop.
func refMatMul(a, b *Dense) *Dense {
	out := NewDense(a.rows, b.cols)
	for i := 0; i < a.rows; i++ {
		for j := 0; j < b.cols; j++ {
			var s float64
			for k := 0; k < a.cols; k++ {
				s += a.data[i*a.cols+k] * b.data[k*b.cols+j]
			}
			out.data[i*out.cols+j] = s
		}
	}
	return out
}

func randMat(r *rand.Rand, rows, cols int, sparsity float64) *Dense {
	m := NewDense(rows, cols)
	for i := range m.data {
		if r.Float64() >= sparsity {
			m.data[i] = r.NormFloat64()
		}
	}
	return m
}

// tolFor scales the comparison tolerance with the length of the reduction,
// since blocked and partial-accumulator sums reassociate.
func tolFor(k int) float64 { return 1e-9 * float64(k+1) }

// withGOMAXPROCS runs f at the given GOMAXPROCS, restoring the old value.
func withGOMAXPROCS(n int, f func()) {
	old := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(old)
	f()
}

// eachProcs runs f at GOMAXPROCS=1 and at GOMAXPROCS=max(4, NumCPU) so both
// the serial and parallel engine paths are exercised regardless of host.
func eachProcs(f func()) {
	withGOMAXPROCS(1, f)
	n := runtime.NumCPU()
	if n < 4 {
		n = 4
	}
	withGOMAXPROCS(n, f)
}

// TestGEMMPathsEquivalence drives all three GEMM kernels (ikj, blocked
// packed, k-split) directly over random shapes, including non-multiples of
// the tile sizes, and compares against the reference.
func TestGEMMPathsEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	prop := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		m := 1 + rr.Intn(90)
		k := 1 + rr.Intn(90)
		n := 1 + rr.Intn(90)
		a := randMat(rr, m, k, 0.2)
		b := randMat(rr, k, n, 0.2)
		want := refMatMul(a, b)
		tol := tolFor(k) * 100

		blocked := NewDense(m, n)
		gemmBlocked(a, b, blocked)
		if !blocked.Equal(want, tol) {
			t.Logf("blocked mismatch at m=%d k=%d n=%d", m, k, n)
			return false
		}
		ksplit := NewDense(m, n)
		gemmKSplit(a, b, ksplit)
		if !ksplit.Equal(want, tol) {
			t.Logf("k-split mismatch at m=%d k=%d n=%d", m, k, n)
			return false
		}
		ikj := NewDense(m, n)
		gemmRows(a, b, ikj, 0, m)
		if !ikj.Equal(want, tol) {
			t.Logf("ikj mismatch at m=%d k=%d n=%d", m, k, n)
			return false
		}
		return true
	}
	eachProcs(func() {
		if err := quick.Check(prop, &quick.Config{MaxCount: 25, Rand: r}); err != nil {
			t.Error(err)
		}
	})
}

// TestMatMulDispatchEquivalence exercises MatMul's own dispatch at shapes
// that land on each path: tiny (serial ikj), skinny XᵀX-like (k-split), and
// large dense (blocked).
func TestMatMulDispatchEquivalence(t *testing.T) {
	shapes := []struct{ m, k, n int }{
		{3, 4, 5},       // tiny: serial ikj
		{9, 4000, 11},   // skinny, long k: k-split
		{150, 150, 150}, // large: blocked
		{130, 70, 200},  // large, non-square, edge tiles
		{1, 1, 1},
		{5, 1, 5},
	}
	r := rand.New(rand.NewSource(12))
	for _, s := range shapes {
		a := randMat(r, s.m, s.k, 0.3)
		b := randMat(r, s.k, s.n, 0.0)
		want := refMatMul(a, b)
		eachProcs(func() {
			got := MatMul(a, b)
			if !got.Equal(want, tolFor(s.k)*100) {
				t.Errorf("MatMul mismatch at %dx%dx%d", s.m, s.k, s.n)
			}
		})
	}
}

// TestMatMulSparseStaysExact: the ikj path skips zeros, so a fully sparse row
// must produce exactly zero output (no packing-path roundoff surprises).
func TestMatMulSparseStaysExact(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	a := randMat(r, 40, 40, 0.9)
	b := randMat(r, 40, 40, 0.0)
	want := refMatMul(a, b)
	if got := MatMul(a, b); !got.Equal(want, 1e-9) {
		t.Fatal("sparse MatMul mismatch")
	}
}

// TestMatVecVecMatGramEquivalence: pooled kernels against serial references
// under both GOMAXPROCS regimes, on small shapes and on shapes just over the
// pool's gate (2¹⁷ scalar ops) whose grids have several chunks, so
// GOMAXPROCS N takes the pool path.
func TestMatVecVecMatGramEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	small := func(rr *rand.Rand) (rows, cols int) { return 1 + rr.Intn(200), 1 + rr.Intn(80) }
	overGate := func(rr *rand.Rand) (rows, cols int) {
		cols = 1 + rr.Intn(80)
		rows = (1<<17+cols-1)/cols + rr.Intn(200)
		multiChunk(t, rows, cols)
		return rows, cols
	}
	shape := small
	prop := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		rows, cols := shape(rr)
		m := randMat(rr, rows, cols, 0.3)
		x := make([]float64, rows)
		v := make([]float64, cols)
		for i := range x {
			x[i] = rr.NormFloat64()
		}
		for i := range v {
			v[i] = rr.NormFloat64()
		}

		// Serial references.
		mv := make([]float64, rows)
		for i := 0; i < rows; i++ {
			var s float64
			for j := 0; j < cols; j++ {
				s += m.data[i*cols+j] * v[j]
			}
			mv[i] = s
		}
		vm := make([]float64, cols)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				vm[j] += x[i] * m.data[i*cols+j]
			}
		}
		gram := refMatMul(m.T(), m)

		tol := tolFor(rows) * 10
		gotMV := MatVec(m, v)
		for i := range mv {
			if d := gotMV[i] - mv[i]; d > tol || d < -tol {
				t.Logf("MatVec[%d] off by %g at %dx%d", i, d, rows, cols)
				return false
			}
		}
		gotVM := VecMat(x, m)
		for j := range vm {
			if d := gotVM[j] - vm[j]; d > tol || d < -tol {
				t.Logf("VecMat[%d] off by %g at %dx%d", j, d, rows, cols)
				return false
			}
		}
		if got := Gram(m); !got.Equal(gram, tol) {
			t.Logf("Gram mismatch at %dx%d", rows, cols)
			return false
		}
		return true
	}
	for _, shape = range []func(*rand.Rand) (int, int){small, overGate} {
		eachProcs(func() {
			if err := quick.Check(prop, &quick.Config{MaxCount: 20, Rand: r}); err != nil {
				t.Error(err)
			}
		})
	}
}

// multiChunk fails the test unless pool.Grain splits a rows×cols input's
// row grid into more than one chunk. The grid, unlike the pool's gate, is
// what the bits depend on.
func multiChunk(t *testing.T, rows, cols int) {
	t.Helper()
	if g := pool.Grain(rows, cols, cols); g >= rows {
		t.Fatalf("%dx%d is one %d-row chunk", rows, cols, g)
	}
}

// TestGramTiledWide forces the tiled path (cols > gramTile) at both proc
// counts.
func TestGramTiledWide(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	m := randMat(r, 300, gramTile*2+17, 0.2)
	want := refMatMul(m.T(), m)
	eachProcs(func() {
		if got := Gram(m); !got.Equal(want, tolFor(300)*10) {
			t.Error("tiled Gram mismatch")
		}
	})
}

// TestCSRIntoEquivalence: CSR Into-variants match the dense kernels.
func TestCSRIntoEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	dn := randMat(r, 120, 40, 0.8)
	sp := CSRFromDense(dn)
	x := make([]float64, 120)
	v := make([]float64, 40)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	for i := range v {
		v[i] = r.NormFloat64()
	}
	eachProcs(func() {
		mv := sp.MatVecInto(make([]float64, 120), v)
		want := MatVec(dn, v)
		for i := range mv {
			if d := mv[i] - want[i]; d > 1e-9 || d < -1e-9 {
				t.Fatalf("CSR MatVecInto[%d] off by %g", i, d)
			}
		}
		vm := sp.VecMatInto(make([]float64, 40), x)
		wantVM := VecMat(x, dn)
		for j := range vm {
			if d := vm[j] - wantVM[j]; d > 1e-9 || d < -1e-9 {
				t.Fatalf("CSR VecMatInto[%d] off by %g", j, d)
			}
		}
	})
}

// TestTransposeParallel: the pool-parallel blocked transpose is exact, on a
// matrix over the pool's gate.
func TestTransposeParallel(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	m := randMat(r, 1025, 129, 0)
	multiChunk(t, m.rows, m.cols)
	eachProcs(func() {
		tr := m.T()
		for i := 0; i < m.rows; i++ {
			for j := 0; j < m.cols; j++ {
				if tr.At(j, i) != m.At(i, j) {
					t.Fatalf("T mismatch at (%d,%d)", i, j)
				}
			}
		}
	})
}

// allocsPerRunHere is testing.AllocsPerRun at the current GOMAXPROCS:
// AllocsPerRun measures at GOMAXPROCS 1, where no call reaches the pool. It
// returns the integer mean of allocations per call after one warm-up call.
func allocsPerRunHere(runs int, f func()) float64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64((after.Mallocs - before.Mallocs) / uint64(runs))
}

// TestIntoVariantsZeroAllocSteadyState: the Into variants allocate nothing
// once warm — at GOMAXPROCS 1, where VecMat and Gram walk the parallel
// regime's multi-chunk grid through one scratch partial, and at GOMAXPROCS
// 2, where all three dispatch through the pool with a recycled call's bound
// range methods, no closure.
func TestIntoVariantsZeroAllocSteadyState(t *testing.T) {
	r := rand.New(rand.NewSource(18))
	// 300k elements, above the pool's gate: VecMat (18 row chunks) and
	// Gram (32) are multi-chunk reductions.
	m := randMat(r, 5000, 60, 0.1)
	x := make([]float64, 5000)
	v := make([]float64, 60)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	for i := range v {
		v[i] = r.NormFloat64()
	}
	mvDst := make([]float64, 5000)
	vmDst := make([]float64, 60)
	gramDst := NewDense(60, 60)
	for _, procs := range []int{1, 2} {
		withGOMAXPROCS(procs, func() {
			for _, c := range []struct {
				name string
				f    func()
			}{
				{"MatVecInto", func() { MatVecInto(mvDst, m, v) }},
				{"VecMatInto", func() { VecMatInto(vmDst, x, m) }},
				{"GramInto", func() { GramInto(gramDst, m) }},
			} {
				if a := allocsPerRunHere(50, c.f); a != 0 {
					t.Errorf("GOMAXPROCS %d: %s allocates %v per run, want 0", procs, c.name, a)
				}
			}
		})
	}
}

// TestReductionsBitReproducible: VecMat, Gram, the GEMM k-split and
// FusedColSums sum fixed row (or k) chunks in index order through
// pool.Reduce, so each returns the same bits on every repeat at GOMAXPROCS 1,
// 2 and 4 — on an input where every grid has many chunks, and on one just
// over the pool's gate (2¹⁷ scalar ops), whose grids have a few.
func TestReductionsBitReproducible(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	sq, err := CompileFused([]FusedOp{{Code: FuseLoad, Arg: 0}, {Code: FuseSq}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	run := func(m, mt *Dense, x []float64) [][]float64 {
		return [][]float64{
			VecMatInto(make([]float64, m.cols), x, m),
			GramInto(NewDense(m.cols, m.cols), m).data,
			MatMul(mt, m).data, // 48×48 output, k = rows: the k-split path
			FusedColSumsInto(make([]float64, m.cols), sq, []FusedInput{DenseInput(m)}, m.rows, m.cols),
		}
	}
	check := func(name string, m *Dense) {
		x := make([]float64, m.rows)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		mt := m.T()
		var want [][]float64
		withGOMAXPROCS(1, func() { want = run(m, mt, x) })
		for _, procs := range []int{1, 2, 4} {
			withGOMAXPROCS(procs, func() {
				for rep := 0; rep < 20; rep++ {
					for k, got := range run(m, mt, x) {
						for i := range got {
							if math.Float64bits(got[i]) != math.Float64bits(want[k][i]) {
								t.Fatalf("%s: kernel %d at GOMAXPROCS=%d rep %d: [%d] = %x, first run %x",
									name, k, procs, rep, i, math.Float64bits(got[i]), math.Float64bits(want[k][i]))
							}
						}
					}
				}
			})
		}
	}
	check("5600x48", randMat(r, 5600, 48, 0.1)) // 268 800 elements: above the gate
	multiChunk(t, 6600, 20)
	check("6600x20", randMat(r, 6600, 20, 0.1)) // 132 000 elements: 9 VecMat chunks
}
