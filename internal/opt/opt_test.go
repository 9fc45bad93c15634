package opt

import (
	"math"
	"math/rand"
	"testing"

	"dmml/internal/la"
	"dmml/internal/pool"
)

// synthRegression builds y = X·wTrue + noise.
func synthRegression(r *rand.Rand, n, d int, noise float64) (*la.Dense, []float64, []float64) {
	x := la.NewDense(n, d)
	wTrue := make([]float64, d)
	for j := range wTrue {
		wTrue[j] = r.NormFloat64()
	}
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			x.Set(i, j, r.NormFloat64())
		}
	}
	y := la.MatVec(x, wTrue)
	for i := range y {
		y[i] += noise * r.NormFloat64()
	}
	return x, y, wTrue
}

// synthClassification builds a linearly separable ±1 problem with margin.
func synthClassification(r *rand.Rand, n, d int) (*la.Dense, []float64, []float64) {
	x := la.NewDense(n, d)
	wTrue := make([]float64, d)
	for j := range wTrue {
		wTrue[j] = r.NormFloat64()
	}
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			x.Set(i, j, r.NormFloat64())
		}
		if la.Dot(x.RowView(i), wTrue) >= 0 {
			y[i] = 1
		} else {
			y[i] = -1
		}
	}
	return x, y, wTrue
}

func TestLossValuesAndDerivs(t *testing.T) {
	cases := []struct {
		loss Loss
		m, y float64
		want float64
	}{
		{Squared{}, 3, 1, 2},
		{Squared{}, 1, 1, 0},
		{Logistic{}, 0, 1, math.Log(2)},
	}
	for _, c := range cases {
		if got := c.loss.Value(c.m, c.y); math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("%T.Value(%v,%v) = %v, want %v", c.loss, c.m, c.y, got, c.want)
		}
	}
	// Numeric derivative check for smooth losses.
	for _, loss := range []Loss{Squared{}, Logistic{}} {
		for _, m := range []float64{-2, -0.1, 0, 0.5, 3} {
			for _, y := range []float64{-1, 1} {
				const h = 1e-6
				num := (loss.Value(m+h, y) - loss.Value(m-h, y)) / (2 * h)
				if got := loss.Deriv(m, y); math.Abs(got-num) > 1e-5 {
					t.Fatalf("%T.Deriv(%v,%v) = %v, numeric %v", loss, m, y, got, num)
				}
			}
		}
	}
	// Logistic extremes must not overflow.
	if v := (Logistic{}).Value(1e4, 1); v != 0 {
		t.Fatalf("logistic extreme value = %v", v)
	}
	if v := (Logistic{}).Value(-1e4, 1); math.IsInf(v, 0) || v < 9000 {
		t.Fatalf("logistic extreme value = %v", v)
	}
}

func TestSigmoid(t *testing.T) {
	if got := Sigmoid(0); got != 0.5 {
		t.Fatalf("Sigmoid(0) = %v", got)
	}
	if got := Sigmoid(100); got <= 0.999 {
		t.Fatalf("Sigmoid(100) = %v", got)
	}
	if got := Sigmoid(-100); got >= 0.001 {
		t.Fatalf("Sigmoid(-100) = %v", got)
	}
	// Symmetry: σ(−m) = 1 − σ(m).
	for _, m := range []float64{-3, -0.5, 0.2, 5} {
		if math.Abs(Sigmoid(-m)-(1-Sigmoid(m))) > 1e-12 {
			t.Fatalf("sigmoid symmetry broken at %v", m)
		}
	}
}

func TestLossAndGradientNumeric(t *testing.T) {
	r := rand.New(rand.NewSource(60))
	x, y, _ := synthRegression(r, 40, 5, 0.1)
	data := DenseData{x}
	w := make([]float64, 5)
	for j := range w {
		w[j] = r.NormFloat64()
	}
	for _, loss := range []Loss{Squared{}, Logistic{}} {
		yy := y
		if _, ok := loss.(Logistic); ok {
			yy = make([]float64, len(y))
			for i := range yy {
				yy[i] = 1
				if y[i] < 0 {
					yy[i] = -1
				}
			}
		}
		_, grad, err := LossAndGradient(data, yy, w, loss, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		const h = 1e-6
		for j := range w {
			wp, wm := la.CloneVec(w), la.CloneVec(w)
			wp[j] += h
			wm[j] -= h
			lp, _, _ := LossAndGradient(data, yy, wp, loss, 0.3)
			lm, _, _ := LossAndGradient(data, yy, wm, loss, 0.3)
			num := (lp - lm) / (2 * h)
			if math.Abs(grad[j]-num) > 1e-4 {
				t.Fatalf("%T grad[%d] = %v, numeric %v", loss, j, grad[j], num)
			}
		}
	}
}

func TestGradientDescentRecoversLeastSquares(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	x, y, _ := synthRegression(r, 300, 6, 0.01)
	res, err := GradientDescent(DenseData{x}, y, Squared{}, GDConfig{Step: 0.1, MaxIter: 500, Tol: 1e-12, Backtracking: true})
	if err != nil {
		t.Fatal(err)
	}
	wLS, err := la.LstSq(x, y)
	if err != nil {
		t.Fatal(err)
	}
	for j := range wLS {
		if math.Abs(res.W[j]-wLS[j]) > 1e-3 {
			t.Fatalf("GD w[%d] = %v, LS %v", j, res.W[j], wLS[j])
		}
	}
	// Loss must be monotone non-increasing with backtracking.
	for i := 1; i < len(res.History); i++ {
		if res.History[i] > res.History[i-1]+1e-12 {
			t.Fatalf("loss increased at %d: %v -> %v", i, res.History[i-1], res.History[i])
		}
	}
}

func TestGradientDescentBacktrackingTamesHugeStep(t *testing.T) {
	r := rand.New(rand.NewSource(62))
	x, y, _ := synthRegression(r, 100, 4, 0.01)
	res, err := GradientDescent(DenseData{x}, y, Squared{}, GDConfig{Step: 1e6, MaxIter: 200, Backtracking: true})
	if err != nil {
		t.Fatal(err)
	}
	final := res.History[len(res.History)-1]
	if math.IsNaN(final) || final > res.History[0] {
		t.Fatalf("backtracking failed: history %v ... %v", res.History[0], final)
	}
}

func TestGDConfigValidation(t *testing.T) {
	x := la.NewDense(2, 2)
	y := []float64{0, 0}
	if _, err := GradientDescent(DenseData{x}, y, Squared{}, GDConfig{Step: 0, MaxIter: 5}); err == nil {
		t.Fatal("want step error")
	}
	if _, err := GradientDescent(DenseData{x}, y, Squared{}, GDConfig{Step: 1, MaxIter: 0}); err == nil {
		t.Fatal("want MaxIter error")
	}
	if _, err := GradientDescent(DenseData{x}, []float64{1}, Squared{}, GDConfig{Step: 1, MaxIter: 5}); err == nil {
		t.Fatal("want label mismatch error")
	}
}

func TestSGDConvergesLogistic(t *testing.T) {
	r := rand.New(rand.NewSource(64))
	x, y, _ := synthClassification(r, 2000, 8)
	res, err := SGD(x, y, Logistic{}, SGDConfig{Step: 0.5, Decay: 0.5, Epochs: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if final := res.EpochLoss[len(res.EpochLoss)-1]; final > 0.2 {
		t.Fatalf("final loss = %v, want < 0.2 on separable data", final)
	}
	// Accuracy check.
	correct := 0
	for i := 0; i < 2000; i++ {
		m := la.Dot(res.W, x.RowView(i))
		if (m >= 0) == (y[i] > 0) {
			correct++
		}
	}
	if acc := float64(correct) / 2000; acc < 0.95 {
		t.Fatalf("accuracy = %v", acc)
	}
}

func TestSGDAggregateMergeWeights(t *testing.T) {
	a := &SGDAggregate{Loss: Squared{}}
	a.Initialize(2)
	a.W = []float64{1, 1}
	a.seen = 3
	b := &SGDAggregate{Loss: Squared{}}
	b.Initialize(2)
	b.W = []float64{4, 0}
	b.seen = 1
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	// Weighted average: (3·1 + 1·4)/4 = 1.75; (3·1 + 0)/4 = 0.75.
	if math.Abs(a.W[0]-1.75) > 1e-12 || math.Abs(a.W[1]-0.75) > 1e-12 {
		t.Fatalf("merged W = %v", a.W)
	}
	// Dimension mismatch.
	c := &SGDAggregate{Loss: Squared{}}
	c.Initialize(3)
	if err := a.Merge(c); err == nil {
		t.Fatal("want dimension mismatch error")
	}
}

func TestParallelSGDModesConverge(t *testing.T) {
	r := rand.New(rand.NewSource(65))
	x, y, _ := synthClassification(r, 3000, 6)
	cfg := SGDConfig{Step: 0.5, Decay: 0.5, Epochs: 8, Seed: 2}
	seq, err := SGD(x, y, Logistic{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []ParallelMode{ModelAverage, SharedAtomic} {
		res, err := ParallelSGD(x, y, Logistic{}, cfg, 4, mode)
		if err != nil {
			t.Fatalf("mode %d: %v", mode, err)
		}
		seqFinal := seq.EpochLoss[len(seq.EpochLoss)-1]
		parFinal := res.EpochLoss[len(res.EpochLoss)-1]
		if parFinal > 3*seqFinal+0.1 {
			t.Fatalf("mode %d: parallel loss %v far above sequential %v", mode, parFinal, seqFinal)
		}
	}
	// workers=1 falls back to sequential and must match exactly.
	one, err := ParallelSGD(x, y, Logistic{}, cfg, 1, ModelAverage)
	if err != nil {
		t.Fatal(err)
	}
	for j := range one.W {
		if one.W[j] != seq.W[j] {
			t.Fatal("workers=1 does not match sequential SGD")
		}
	}
}

func TestParallelSGDValidation(t *testing.T) {
	x := la.NewDense(4, 2)
	y := make([]float64, 4)
	if _, err := ParallelSGD(x, y, Squared{}, SGDConfig{Step: 1, Epochs: 1}, 0, ModelAverage); err == nil {
		t.Fatal("want workers error")
	}
	if _, err := ParallelSGD(x, y, Squared{}, SGDConfig{Step: 1, Epochs: 1}, 2, ParallelMode(99)); err == nil {
		t.Fatal("want unknown mode error")
	}
	if _, err := SGD(x, []float64{1}, Squared{}, SGDConfig{Step: 1, Epochs: 1}); err == nil {
		t.Fatal("want label mismatch error")
	}
}

func TestSGDMatchesGDOnQuadratic(t *testing.T) {
	// With enough epochs and decay, SGD should approach the least-squares
	// optimum on a small well-conditioned problem.
	r := rand.New(rand.NewSource(67))
	x, y, _ := synthRegression(r, 500, 4, 0.05)
	res, err := SGD(x, y, Squared{}, SGDConfig{Step: 0.05, Decay: 1, Epochs: 60, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	wLS, _ := la.LstSq(x, y)
	for j := range wLS {
		if math.Abs(res.W[j]-wLS[j]) > 0.05 {
			t.Fatalf("SGD w[%d] = %v, LS %v", j, res.W[j], wLS[j])
		}
	}
}

// TestGradientDescentReleasesScratch pins the per-buffer defer pairing in
// GradientDescent: every scratch buffer (including the ones renamed by the
// w/cand and grad/candGrad swaps) goes back to the pool exactly once, and the
// returned W is a private clone. If a defer released the wrong buffer — or
// W aliased the pool — the scribble pass below would corrupt the result.
func TestGradientDescentReleasesScratch(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	x, y, _ := synthRegression(r, 120, 5, 0.01)
	res, err := GradientDescent(DenseData{x}, y, Squared{}, GDConfig{Step: 0.1, MaxIter: 50, Backtracking: true})
	if err != nil {
		t.Fatal(err)
	}
	want := la.CloneVec(res.W)

	// Drain the pool's small classes and scribble over everything GD might
	// have released, then run a second fit for good measure.
	var grabbed [][]float64
	for i := 0; i < 64; i++ {
		buf := pool.GetF64(len(want))
		for j := range buf {
			buf[j] = math.NaN()
		}
		grabbed = append(grabbed, buf)
	}
	for _, buf := range grabbed {
		pool.PutF64(buf)
	}
	res2, err := GradientDescent(DenseData{x}, y, Squared{}, GDConfig{Step: 0.1, MaxIter: 50, Backtracking: true})
	if err != nil {
		t.Fatal(err)
	}

	for j := range want {
		if res.W[j] != want[j] {
			t.Fatalf("res.W[%d] mutated after pool reuse: %v != %v (W aliases a pooled buffer)", j, res.W[j], want[j])
		}
		if math.IsNaN(res2.W[j]) {
			t.Fatalf("second fit read poisoned scratch at w[%d]: pooled buffer not re-zeroed or double-released", j)
		}
	}
}
