package opt

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"dmml/internal/la"
)

var allLosses = []Loss{Squared{}, Logistic{}, Hinge{}}

// lossEdgeMargins are the magnitudes where some loss changes regime: zero,
// the hinge's kink at 1, the exp gate's ends, the old ±35 logistic cut-offs,
// exp underflow, and the non-finite values.
var lossEdgeMargins = []float64{0, 0x1p-30, 1, 35, 700, 1e4, math.Inf(1), math.NaN()}

// lossCases returns n margin/label pairs: a wide random sweep with every
// edge magnitude (finite ones only unless nonFinite) spliced in under both
// signs and both labels, as far as n allows.
func lossCases(r *rand.Rand, n int, nonFinite bool) (margins, y []float64) {
	margins, y = make([]float64, n), make([]float64, n)
	for i := range margins {
		margins[i] = r.NormFloat64() * math.Exp(r.Float64()*8-4)
		y[i] = float64(2*r.Intn(2) - 1)
	}
	i := 0
	for _, m := range lossEdgeMargins {
		if !nonFinite && (math.IsInf(m, 0) || math.IsNaN(m)) {
			continue
		}
		for _, sm := range []float64{1, -1} {
			for _, sy := range []float64{1, -1} {
				if i < n {
					margins[i], y[i] = sm*m, sy
					i++
				}
			}
		}
	}
	r.Shuffle(n, func(a, b int) {
		margins[a], margins[b] = margins[b], margins[a]
		y[a], y[b] = y[b], y[a]
	})
	return margins, y
}

func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// TestBatchMatchesPerRow: for every loss the batch method is the per-row
// Value/Deriv pair — each deriv to the bit (the contract allows 2 ulp; the
// kernels share their lane arithmetic with the scalars, so none is needed),
// the sum to 1e-12 relative (chunking reassociates it above lossChunk rows) —
// at lengths around the 8-lane grouping and the chunk size, at every core
// count, over the edge margins. (la's TestLogisticLossIntoMatchesScalar
// repeats the logistic half with the exp probe forced to scalar mode.)
func TestBatchMatchesPerRow(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	r := rand.New(rand.NewSource(150))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for _, loss := range allLosses {
			for _, n := range []int{0, 1, 7, 8, 9, 4097, lossChunk, lossChunk + 1, 3*lossChunk + 5} {
				for _, nonFinite := range []bool{false, true} {
					margins, y := lossCases(r, n, nonFinite)
					derivs := make([]float64, n)
					got := loss.Batch(derivs, margins, y)
					want := 0.0
					for i, m := range margins {
						want += loss.Value(m, y[i])
						if d := loss.Deriv(m, y[i]); !sameFloat(derivs[i], d) {
							t.Fatalf("%s procs=%d n=%d: deriv(%g, %g) = %g, per-row %g", loss.Name(), procs, n, m, y[i], derivs[i], d)
						}
					}
					if !(math.Abs(got-want) <= 1e-12*math.Abs(want)) && !sameFloat(got, want) {
						t.Fatalf("%s procs=%d n=%d nonFinite=%v: sum = %v, per-row %v", loss.Name(), procs, n, nonFinite, got, want)
					}
				}
			}
		}
	}
}

func TestBatchLengthMismatchPanics(t *testing.T) {
	for _, loss := range allLosses {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s.Batch accepted 3 margins with 2 labels", loss.Name())
				}
			}()
			loss.Batch(make([]float64, 3), make([]float64, 3), make([]float64, 2))
		}()
	}
}

// TestBatchReproducible: above the chunk size the pass runs on the pool, and
// still returns the same bits at GOMAXPROCS 1, 2 and 4 and on every repeat —
// fixed chunks, chunk sums added in index order. GradientDescent's first
// history entry is that sum (at w = 0), so it is bit-equal across core counts
// too; later entries are not, because VecMatInto reassociates.
func TestBatchReproducible(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	r := rand.New(rand.NewSource(151))
	n := 5*lossChunk + 123
	margins, y := lossCases(r, n, false)
	for _, loss := range allLosses {
		var wantSum float64
		var wantDerivs []float64
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			for rep := 0; rep < 20; rep++ {
				derivs := make([]float64, n)
				sum := loss.Batch(derivs, margins, y)
				if wantDerivs == nil {
					wantSum, wantDerivs = sum, derivs
					continue
				}
				if math.Float64bits(sum) != math.Float64bits(wantSum) {
					t.Fatalf("%s procs=%d rep=%d: sum %x, first run %x", loss.Name(), procs, rep, math.Float64bits(sum), math.Float64bits(wantSum))
				}
				for i := range derivs {
					if math.Float64bits(derivs[i]) != math.Float64bits(wantDerivs[i]) {
						t.Fatalf("%s procs=%d rep=%d: derivs[%d] differs from first run", loss.Name(), procs, rep, i)
					}
				}
			}
		}
	}

	x, yy := randProblem(r, 3*lossChunk, 6)
	var first float64
	for i, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		res, err := GradientDescent(DenseData{M: x}, yy, Logistic{}, GDConfig{Step: 0.5, MaxIter: 2, Backtracking: true})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = res.History[0]
		} else if math.Float64bits(res.History[0]) != math.Float64bits(first) {
			t.Fatalf("GD History[0] at GOMAXPROCS=%d is %x, at 1 it was %x", procs, math.Float64bits(res.History[0]), math.Float64bits(first))
		}
	}
}

// TestMeanLossReproducible: MeanLoss sums through the same chunk-ordered
// reduction, so it too is bit-equal across core counts.
func TestMeanLossReproducible(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	r := rand.New(rand.NewSource(152))
	x, y := randProblem(r, 2*lossChunk+17, 40)
	w := make([]float64, 40)
	for j := range w {
		w[j] = r.NormFloat64()
	}
	serial := 0.0
	for i := range y {
		serial += Logistic{}.Value(la.Dot(w, x.RowView(i)), y[i])
	}
	serial /= float64(len(y))
	var first float64
	for i, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for rep := 0; rep < 5; rep++ {
			got := MeanLoss(DenseRows{M: x}, y, w, Logistic{})
			if i == 0 && rep == 0 {
				first = got
				if math.Abs(got-serial) > 1e-12*serial {
					t.Fatalf("MeanLoss = %v, row-order sum %v", got, serial)
				}
			} else if math.Float64bits(got) != math.Float64bits(first) {
				t.Fatalf("MeanLoss at GOMAXPROCS=%d rep %d is %x, first %x", procs, rep, math.Float64bits(got), math.Float64bits(first))
			}
		}
	}
}

// TestLBFGSBlockFailureIsAnError: a block source failing mid-pass — at the
// initial evaluation or inside a line search — comes back from LBFGS as an
// error; it used to be a panic out of the error-less LossAndGradient.
func TestLBFGSBlockFailureIsAnError(t *testing.T) {
	r := rand.New(rand.NewSource(153))
	m, y := randProblem(r, 200, 4)
	for okPasses := 0; okPasses < 3; okPasses++ {
		src := &fakeBlocks{DenseData: DenseData{m}, blockRows: 50, failAt: 2, okPasses: okPasses}
		_, err := LBFGS(src, y, Logistic{}, LBFGSConfig{MaxIter: 5})
		if err == nil || !strings.Contains(err.Error(), "injected block failure at 2") {
			t.Fatalf("after %d good passes LBFGS err = %v, want the block failure", okPasses, err)
		}
	}
}

// TestLBFGSProbesDoNotAllocate: once the correction memory is full an
// iteration — two-loop recursion, line-search probes, pair update — runs in
// the buffers acquired up front: forty more iterations cost only the loss
// history's amortized growth.
func TestLBFGSProbesDoNotAllocate(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	r := rand.New(rand.NewSource(154))
	x, y := randProblem(r, 300, 12)
	// Label noise keeps the problem non-separable, so no run converges early.
	for i := 0; i < len(y); i += 7 {
		y[i] = -y[i]
	}
	allocs := func(iters int) float64 {
		return testing.AllocsPerRun(5, func() {
			res, err := LBFGS(DenseData{M: x}, y, Logistic{}, LBFGSConfig{MaxIter: iters, Memory: 4, Tol: 1e-300, L2: 1e-3})
			if err != nil {
				t.Fatal(err)
			}
			if res.Iters < iters {
				t.Skipf("converged after %d of %d iterations; nothing to measure", res.Iters, iters)
			}
		})
	}
	short, long := allocs(10), allocs(50)
	if perIter := (long - short) / 40; perIter >= 0.25 {
		t.Fatalf("LBFGS allocates %.2f objects per iteration (%v at 10 iters, %v at 50), want 0", perIter, short, long)
	}
}

func benchLossPass(b *testing.B, loss Loss) {
	for _, n := range []int{200000, 4096} {
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			r := rand.New(rand.NewSource(155))
			margins, y := make([]float64, n), make([]float64, n)
			for i := range margins {
				margins[i] = 2 * r.NormFloat64()
				y[i] = float64(2*r.Intn(2) - 1)
			}
			derivs := make([]float64, n)
			b.SetBytes(int64(24 * n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lossSink = loss.Batch(derivs, margins, y)
			}
		})
	}
}

var lossSink float64

// The loss pass of the bulk solvers at train_join's row count and at one
// out-of-core block (`make bench` runs them for benchstat).
func BenchmarkLossPassLogistic(b *testing.B) { benchLossPass(b, Logistic{}) }
func BenchmarkLossPassSquared(b *testing.B)  { benchLossPass(b, Squared{}) }
func BenchmarkLossPassHinge(b *testing.B)    { benchLossPass(b, Hinge{}) }
