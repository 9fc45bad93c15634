package opt

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"dmml/internal/la"
	"dmml/internal/pool"
)

var allLosses = []Loss{Squared{}, Logistic{}}

// lossEdgeMargins are the magnitudes where some loss changes regime: zero,
// a unit margin, the exp gate's ends, the old ±35 logistic cut-offs,
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
// the sum to 1e-12 relative (chunking reassociates it above one chunk) — at
// lengths around the 8-lane grouping, the chunk size and the pool's gate, at
// every core count, over the edge margins. (la's TestLogisticLossIntoMatchesScalar
// repeats the logistic half with the exp probe forced to scalar mode.)
func TestBatchMatchesPerRow(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	r := rand.New(rand.NewSource(150))
	const cols = 16
	chunk := pool.Grain(1<<14, cols, cols)
	gate := 1 << 17 / cols // rows at the pool's gate
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for _, loss := range allLosses {
			for _, n := range []int{0, 1, 7, 8, 9, chunk, chunk + 1, 3*chunk + 5, 4097, gate - 1, gate} {
				for _, nonFinite := range []bool{false, true} {
					margins, y := lossCases(r, n, nonFinite)
					derivs := make([]float64, n)
					got := loss.Batch(derivs, margins, y, cols)
					want := 0.0
					for i, m := range margins {
						want += loss.Value(m, y[i])
						if d := loss.Deriv(m, y[i]); !sameFloat(derivs[i], d) {
							t.Fatalf("%T procs=%d n=%d: deriv(%g, %g) = %g, per-row %g", loss, procs, n, m, y[i], derivs[i], d)
						}
					}
					if !(math.Abs(got-want) <= 1e-12*math.Abs(want)) && !sameFloat(got, want) {
						t.Fatalf("%T procs=%d n=%d nonFinite=%v: sum = %v, per-row %v", loss, procs, n, nonFinite, got, want)
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
					t.Errorf("%T.Batch accepted 3 margins with 2 labels", loss)
				}
			}()
			loss.Batch(make([]float64, 3), make([]float64, 3), make([]float64, 2), 1)
		}()
	}
}

// TestBatchReproducible: over the pool's gate the pass runs on the pool, and
// still returns the same bits at GOMAXPROCS 1, 2 and 4 and on every repeat —
// fixed chunks, chunk sums added in index order. GradientDescent's first
// history entry is that sum (at w = 0), so it is bit-equal across core counts
// too; later entries are not, because VecMatInto reassociates.
func TestBatchReproducible(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	r := rand.New(rand.NewSource(151))
	const cols = 16
	n := 5*8192 + 123 // over the pool's gate
	if g := pool.Grain(n, cols, cols); g >= n {
		t.Fatalf("%d rows are one %d-row chunk", n, g)
	}
	margins, y := lossCases(r, n, false)
	for _, loss := range allLosses {
		var wantSum float64
		var wantDerivs []float64
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			for rep := 0; rep < 20; rep++ {
				derivs := make([]float64, n)
				sum := loss.Batch(derivs, margins, y, cols)
				if wantDerivs == nil {
					wantSum, wantDerivs = sum, derivs
					continue
				}
				if math.Float64bits(sum) != math.Float64bits(wantSum) {
					t.Fatalf("%T procs=%d rep=%d: sum %x, first run %x", loss, procs, rep, math.Float64bits(sum), math.Float64bits(wantSum))
				}
				for i := range derivs {
					if math.Float64bits(derivs[i]) != math.Float64bits(wantDerivs[i]) {
						t.Fatalf("%T procs=%d rep=%d: derivs[%d] differs from first run", loss, procs, rep, i)
					}
				}
			}
		}
	}

	x, yy := randProblem(r, 3*8192, 6)
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

// TestLossGridIsVecMatGrid: the loss pass over the margins of rows × cols
// data sums over the row chunks la.VecMatInto takes on that data —
// pool.Grain(rows, cols, cols) — so a one-pass step can run both on one grid.
func TestLossGridIsVecMatGrid(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, sh := range []struct{ n, cols int }{{100, 3}, {4096, 40}, {9000, 1}, {41083, 16}, {200000, 78}, {3000, 5000}} {
		var got []int
		tile := func(derivs, margins, y []float64) float64 {
			got = append(got, len(margins))
			return 0
		}
		buf := make([]float64, sh.n)
		batchLoss(buf, buf, buf, sh.cols, tile)
		g := pool.Grain(sh.n, sh.cols, sh.cols)
		var want []int
		for lo := 0; lo < sh.n; lo += g {
			want = append(want, min(g, sh.n-lo))
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%d×%d: loss chunks %v, VecMatInto's %v", sh.n, sh.cols, got, want)
		}
	}
}

// TestMeanLossReproducible: MeanLoss sums through the same chunk-ordered
// reduction, so it too is bit-equal across core counts.
func TestMeanLossReproducible(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	r := rand.New(rand.NewSource(152))
	x, y := randProblem(r, 2*8192+17, 40)
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
			got := MeanLoss(x, y, w, Logistic{})
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

func benchLossPass(b *testing.B, loss Loss) {
	for _, sh := range []struct{ n, cols int }{{200000, 78}, {4096, 40}} {
		n := sh.n
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
				lossSink = loss.Batch(derivs, margins, y, sh.cols)
			}
		})
	}
}

var lossSink float64

// The loss pass of the bulk solvers at train_join's row count and join width
// and at one out-of-core block (`make bench` runs them for benchstat).
func BenchmarkLossPassLogistic(b *testing.B) { benchLossPass(b, Logistic{}) }
func BenchmarkLossPassSquared(b *testing.B)  { benchLossPass(b, Squared{}) }
