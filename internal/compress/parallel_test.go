package compress

// Equivalence properties for the parallel compressed-LA paths: the pooled
// MatVec/VecMat/Gram/Decompress and the parallel planner must agree with the
// dense equivalents at GOMAXPROCS=1 and GOMAXPROCS=N, and the Into variants
// must reach a zero-allocation steady state in the serial regime.

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"dmml/internal/la"
	"dmml/internal/opt"
	"dmml/internal/workload"
)

func withGOMAXPROCS(n int, f func()) {
	old := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(old)
	f()
}

func eachProcs(f func()) {
	withGOMAXPROCS(1, f)
	n := runtime.NumCPU()
	if n < 4 {
		n = 4
	}
	withGOMAXPROCS(n, f)
}

// forceParallel lowers the work cutoff so even test-sized matrices take the
// pool paths, restoring it on cleanup.
func forceParallel(t *testing.T) {
	old := compressParallelMinWork
	compressParallelMinWork = 1
	t.Cleanup(func() { compressParallelMinWork = old })
}

func TestParallelOpsMatchDense(t *testing.T) {
	forceParallel(t)
	r := rand.New(rand.NewSource(60))
	prop := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		rows := 50 + rr.Intn(400)
		m := mixedMatrix(rr, rows)
		v := vecOf(rr, m.Cols())
		x := vecOf(rr, rows)
		wantMV := la.MatVec(m, v)
		wantVM := la.VecMat(x, m)
		wantGram := la.Gram(m)
		tol := 1e-9 * float64(rows)

		for _, opts := range []Options{{}, {CoCode: true}} {
			c := Compress(m, opts)
			if !c.Decompress().Equal(m, 0) {
				t.Logf("decompress round trip failed at rows=%d opts=%+v", rows, opts)
				return false
			}
			gotMV := c.MatVec(v)
			for i := range wantMV {
				if math.Abs(gotMV[i]-wantMV[i]) > tol {
					t.Logf("MatVec[%d] off by %g", i, gotMV[i]-wantMV[i])
					return false
				}
			}
			gotVM := c.VecMat(x)
			for j := range wantVM {
				if math.Abs(gotVM[j]-wantVM[j]) > tol {
					t.Logf("VecMat[%d] off by %g", j, gotVM[j]-wantVM[j])
					return false
				}
			}
			gram := la.NewDense(m.Cols(), m.Cols())
			c.GramAccum(gram)
			if !gram.Equal(wantGram, tol) {
				t.Logf("Gram mismatch at rows=%d opts=%+v", rows, opts)
				return false
			}
		}
		return true
	}
	eachProcs(func() {
		if err := quick.Check(prop, &quick.Config{MaxCount: 10, Rand: r}); err != nil {
			t.Error(err)
		}
	})
}

// TestParallelPlannerDeterministic: the pooled planner must produce the same
// partition and encodings regardless of worker count.
func TestParallelPlannerDeterministic(t *testing.T) {
	forceParallel(t)
	r := rand.New(rand.NewSource(61))
	m := mixedMatrix(r, 600)
	var serialInfo []string
	withGOMAXPROCS(1, func() {
		serialInfo = Compress(m, Options{CoCode: true}).GroupInfo()
	})
	n := runtime.NumCPU()
	if n < 4 {
		n = 4
	}
	withGOMAXPROCS(n, func() {
		got := Compress(m, Options{CoCode: true}).GroupInfo()
		if len(got) != len(serialInfo) {
			t.Fatalf("group count differs: %v vs %v", got, serialInfo)
		}
		for i := range got {
			if got[i] != serialInfo[i] {
				t.Fatalf("group %d differs: %q vs %q", i, got[i], serialInfo[i])
			}
		}
	})
}

// TestCompressedIntoZeroAllocSteadyState: once the scratch pool is warm, the
// serial Into variants must not allocate — the property the E4 hot loop
// depends on.
func TestCompressedIntoZeroAllocSteadyState(t *testing.T) {
	withGOMAXPROCS(1, func() {
		r := rand.New(rand.NewSource(62))
		m := mixedMatrix(r, 400)
		c := Compress(m, Options{CoCode: true})
		v := vecOf(r, m.Cols())
		x := vecOf(r, m.Rows())
		mvDst := make([]float64, m.Rows())
		vmDst := make([]float64, m.Cols())
		c.MatVecInto(mvDst, v) // warm the scratch pool
		c.VecMatInto(vmDst, x)

		if a := testing.AllocsPerRun(50, func() { c.MatVecInto(mvDst, v) }); a != 0 {
			t.Errorf("MatVecInto allocates %v per run, want 0", a)
		}
		if a := testing.AllocsPerRun(50, func() { c.VecMatInto(vmDst, x) }); a != 0 {
			t.Errorf("VecMatInto allocates %v per run, want 0", a)
		}
	})
}

// TestCompressedGDBitReproducible: with compressParallelMinWork forced to 1,
// gradient descent over a small compressed matrix of 16 column groups runs
// MatVecInto as four Reduce chunks, and returns the same W and History bits
// on every repeat at GOMAXPROCS 1, 2 and 4.
func TestCompressedGDBitReproducible(t *testing.T) {
	forceParallel(t)
	r := rand.New(rand.NewSource(63))
	cards := make([]int, 16)
	for j := range cards {
		cards[j] = 2 + j
	}
	m := workload.TelemetryMatrix(r, 500, cards, 1)
	c := Compress(m, Options{})
	if g := len(c.Groups()); g <= matVecGroups {
		t.Fatalf("%d column groups, want more than one MatVec chunk", g)
	}
	y := make([]float64, m.Rows())
	for i := range y {
		y[i] = float64(2*r.Intn(2) - 1)
	}
	cfg := opt.GDConfig{Step: 0.5, MaxIter: 5, Backtracking: true}
	var first *opt.GDResult
	for _, procs := range []int{1, 2, 4} {
		withGOMAXPROCS(procs, func() {
			for rep := 0; rep < 20; rep++ {
				res, err := opt.GradientDescent(c, y, opt.Logistic{}, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if first == nil {
					first = res
					continue
				}
				for j := range res.W {
					if math.Float64bits(res.W[j]) != math.Float64bits(first.W[j]) {
						t.Fatalf("GOMAXPROCS=%d rep %d: W[%d] = %x, first run %x", procs, rep, j, math.Float64bits(res.W[j]), math.Float64bits(first.W[j]))
					}
				}
				for j := range res.History {
					if math.Float64bits(res.History[j]) != math.Float64bits(first.History[j]) {
						t.Fatalf("GOMAXPROCS=%d rep %d: History[%d] = %x, first run %x", procs, rep, j, math.Float64bits(res.History[j]), math.Float64bits(first.History[j]))
					}
				}
			}
		})
	}
}
