package compress

import (
	"math"
	"math/rand"
	"testing"

	"dmml/internal/la"
	"dmml/internal/pool"
)

// lossGradCases builds one test matrix per forced encoding, plus the planner's
// choice with co-coding, over rows that are a multiple neither of eight nor
// of the fused step's range span.
func lossGradCases(t *testing.T, rows int) map[string]*Matrix {
	t.Helper()
	r := rand.New(rand.NewSource(71))
	m := mixedMatrix(r, rows)
	// Columns 0 and 1 move together: co-coded, leaving five groups, whose
	// span needs rounding up to a multiple of eight.
	corr := la.NewDense(rows, 6)
	for i := 0; i < rows; i++ {
		// 1000 levels: two-byte DDC codes, and OLE and RLE entry lists
		// short enough for several ranges.
		m.Set(i, 3, float64(r.Intn(1000))/7)
		a := r.Intn(6)
		corr.Set(i, 0, float64(a))
		corr.Set(i, 1, float64(a%3)*2)
		corr.Set(i, 2, float64(r.Intn(4)))
		corr.Set(i, 3, m.At(i, 1))
		corr.Set(i, 4, r.NormFloat64())
		corr.Set(i, 5, r.NormFloat64())
	}
	cases := map[string]*Matrix{
		"DDC":     Compress(m, Options{force: forceDDC}),
		"OLE":     Compress(m, Options{force: forceOLE}),
		"RLE":     Compress(m, Options{force: forceRLE}),
		"UC":      Compress(m, Options{force: forceUC}),
		"cocoded": Compress(corr, Options{CoCode: true}),
	}
	kinds := map[string]bool{}
	cocoded := false
	for _, c := range cases {
		for _, g := range c.Groups() {
			kinds[g.Encoding()] = true
			cocoded = cocoded || len(g.Cols()) > 1
		}
	}
	for _, enc := range []string{"DDC1", "DDC2", "OLE", "RLE", "UC"} {
		if !kinds[enc] {
			t.Fatalf("no %s group among %v", enc, kinds)
		}
	}
	if !cocoded {
		t.Fatal("no co-coded group; the co-coding case is vacuous")
	}
	return cases
}

// lossGradInputs returns weights, ±1 labels and a non-zero starting gradient
// for c.
func lossGradInputs(c *Matrix) (w, y, grad0 []float64) {
	r := rand.New(rand.NewSource(72))
	w = vecOf(r, c.Cols())
	y = make([]float64, c.Rows())
	for i := range y {
		y[i] = float64(2*r.Intn(2) - 1)
	}
	return w, y, vecOf(r, c.Cols())
}

// lossGradStep runs LossGradAccum on fresh buffers, the gradient starting
// from grad0.
func lossGradStep(c *Matrix, w, y, grad0 []float64) (loss float64, grad, margins, derivs []float64) {
	grad = append([]float64(nil), grad0...)
	margins, derivs = make([]float64, c.Rows()), make([]float64, c.Rows())
	loss = c.LossGradAccum(grad, margins, derivs, w, y, la.LogisticLossInto)
	return loss, grad, margins, derivs
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %x, want %x", what, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// TestLossGradAccumMatchesThreePass: for every encoding and co-coded groups,
// over rows that end mid-range and mid-lane-group, the one-pass step writes
// the margins of MatVecInto and the derivatives of the tile over them, bit
// for bit; its loss and gradient are the three-pass step's to 1e-12
// relative; and over the pool's gate, with the ranges run on the pool,
// they are GOMAXPROCS 1's serial walk's bits at GOMAXPROCS 2 and 4.
func TestLossGradAccumMatchesThreePass(t *testing.T) {
	const rows = 8*4096 + 1003 // at least four groups: over the gate
	cases := lossGradCases(t, rows)
	for name, c := range cases {
		// The accumulator is ΣL and every group's entry weights.
		acc := 1
		for _, g := range c.Groups() {
			if d := g.dictionary(); d != nil {
				acc += d.numEntries()
			} else {
				acc++
			}
		}
		span := pool.Grain(rows, len(c.Groups()), acc)
		if span%8 != 0 || rows%span == 0 || rows/span < 2 {
			t.Fatalf("%s: span %d for %d rows: want a multiple of 8, several ranges and a short last one", name, span, rows)
		}
		w, y, grad0 := lossGradInputs(c)
		wantMargins := c.MatVec(w)
		wantDerivs := make([]float64, rows)
		wantLoss := la.LogisticLossInto(wantDerivs, wantMargins, y)
		wantGrad := append([]float64(nil), grad0...)
		c.VecMatAccum(wantGrad, wantDerivs)

		var serialLoss float64
		var serialGrad []float64
		withGOMAXPROCS(1, func() {
			var margins, derivs []float64
			serialLoss, serialGrad, margins, derivs = lossGradStep(c, w, y, grad0)
			sameBits(t, name+" margins", margins, wantMargins)
			sameBits(t, name+" derivs", derivs, wantDerivs)
		})
		if d := math.Abs(serialLoss - wantLoss); d > 1e-12*math.Abs(wantLoss) {
			t.Errorf("%s: loss %v, three-pass %v", name, serialLoss, wantLoss)
		}
		scale := 0.0
		for _, g := range wantGrad {
			scale = max(scale, math.Abs(g))
		}
		for j := range wantGrad {
			if d := math.Abs(serialGrad[j] - wantGrad[j]); d > 1e-12*scale {
				t.Errorf("%s: grad[%d] = %v, three-pass %v", name, j, serialGrad[j], wantGrad[j])
			}
		}
		for _, p := range []int{2, 4} {
			withGOMAXPROCS(p, func() {
				loss, grad, margins, derivs := lossGradStep(c, w, y, grad0)
				if math.Float64bits(loss) != math.Float64bits(serialLoss) {
					t.Fatalf("%s GOMAXPROCS=%d: loss %x, serial walk %x", name, p, math.Float64bits(loss), math.Float64bits(serialLoss))
				}
				sameBits(t, name+" grad", grad, serialGrad)
				sameBits(t, name+" margins", margins, wantMargins)
				sameBits(t, name+" derivs", derivs, wantDerivs)
			})
		}
	}
}

// BenchmarkBlockStep times one gradient step over a block of the out-of-core
// workload's shape, 4096 rows of 32 Zipf-categorical and 8 Gaussian
// columns: the three passes (MatVecInto, the logistic tile, VecMatAccum)
// against the one-pass LossGradAccum.
func BenchmarkBlockStep(b *testing.B) {
	r := rand.New(rand.NewSource(73))
	c := Compress(blockMatrix(r, 4096), Options{})
	w := vecOf(r, c.Cols())
	for j := range w {
		w[j] *= 0.1
	}
	y := make([]float64, c.Rows())
	for i := range y {
		y[i] = float64(2*r.Intn(2) - 1)
	}
	margins, derivs := make([]float64, c.Rows()), make([]float64, c.Rows())
	grad := make([]float64, c.Cols())
	b.Run("three-pass", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.MatVecInto(margins, w)
			la.LogisticLossInto(derivs, margins, y)
			c.VecMatAccum(grad, derivs)
		}
	})
	b.Run("fused", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.LossGradAccum(grad, margins, derivs, w, y, la.LogisticLossInto)
		}
	})
}
