package factorized

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dmml/internal/la"
	"dmml/internal/opt"
	"dmml/internal/workload"
)

func testStar(t *testing.T, seed int64, factRows int, dimRows []int) *JoinTree {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	dimFeats := make([]int, len(dimRows))
	for k := range dimFeats {
		dimFeats[k] = 2 + k
	}
	s, err := workload.GenerateStar(r, workload.StarConfig{
		FactRows:  factRows,
		FactFeats: 3,
		DimRows:   dimRows,
		DimFeats:  dimFeats,
		Task:      workload.RegressionTask,
		DimSignal: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewStar(s.X[0], s.FKs[1:], s.X[1:])
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewStarValidation(t *testing.T) {
	fact := la.NewDense(4, 2)
	dim := la.NewDense(3, 2)
	if _, err := NewStar(nil, nil, nil); err == nil {
		t.Fatal("want nil fact error")
	}
	if _, err := NewStar(fact, [][]int{{0, 1, 2, 0}}, nil); err == nil {
		t.Fatal("want fk/dim count mismatch error")
	}
	if _, err := NewStar(fact, [][]int{{0, 1}}, []*la.Dense{dim}); err == nil {
		t.Fatal("want fk length error")
	}
	if _, err := NewStar(fact, [][]int{{0, 1, 3, 0}}, []*la.Dense{dim}); err == nil {
		t.Fatal("want fk out-of-range error")
	}
	d, err := NewStar(fact, [][]int{{0, 1, 2, 0}}, []*la.Dense{dim})
	if err != nil {
		t.Fatal(err)
	}
	if d.Rows() != 4 || d.Cols() != 4 || d.NumNodes() != 2 {
		t.Fatalf("dims: rows=%d cols=%d nodes=%d", d.Rows(), d.Cols(), d.NumNodes())
	}
}

func TestMatVecMatchesMaterialized(t *testing.T) {
	d := testStar(t, 90, 300, []int{30, 17})
	m := d.Materialize()
	r := rand.New(rand.NewSource(91))
	w := make([]float64, d.Cols())
	for j := range w {
		w[j] = r.NormFloat64()
	}
	got := d.MatVec(w)
	want := la.MatVec(m, w)
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-10 {
			t.Fatalf("MatVec[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestVecMatMatchesMaterialized(t *testing.T) {
	d := testStar(t, 92, 250, []int{20})
	m := d.Materialize()
	r := rand.New(rand.NewSource(93))
	x := make([]float64, d.Rows())
	for i := range x {
		x[i] = r.NormFloat64()
	}
	got := d.VecMat(x)
	want := la.VecMat(x, m)
	for j := range got {
		if math.Abs(got[j]-want[j]) > 1e-9 {
			t.Fatalf("VecMat[%d] = %v, want %v", j, got[j], want[j])
		}
	}
}

func TestGramMatchesMaterialized(t *testing.T) {
	// Multiple dimensions exercise the cross-dimension co-occurrence path.
	d := testStar(t, 94, 220, []int{15, 9, 6})
	got := d.Gram()
	want := la.Gram(d.Materialize())
	if !got.Equal(want, 1e-8) {
		t.Fatal("factorized Gram != materialized Gram")
	}
}

func TestNormalEquationsSolveMatches(t *testing.T) {
	d := testStar(t, 95, 500, []int{40, 11})
	r := rand.New(rand.NewSource(96))
	y := make([]float64, d.Rows())
	for i := range y {
		y[i] = r.NormFloat64()
	}
	// Factorized: (XᵀX + λI) w = Xᵀy.
	g := d.Gram()
	for j := 0; j < d.Cols(); j++ {
		g.Set(j, j, g.At(j, j)+0.1)
	}
	wFact, err := la.SolveSPD(g, d.XtY(y))
	if err != nil {
		t.Fatal(err)
	}
	// Materialized path.
	m := d.Materialize()
	gm := la.Gram(m)
	for j := 0; j < d.Cols(); j++ {
		gm.Set(j, j, gm.At(j, j)+0.1)
	}
	wMat, err := la.SolveSPD(gm, la.XtY(m, y))
	if err != nil {
		t.Fatal(err)
	}
	for j := range wFact {
		if math.Abs(wFact[j]-wMat[j]) > 1e-8 {
			t.Fatalf("w[%d]: factorized %v vs materialized %v", j, wFact[j], wMat[j])
		}
	}
}

// The Design satisfies opt.BulkData, so batch GD over the factorized join
// must produce the same trajectory as GD over the materialized matrix.
func TestGradientDescentOverJoin(t *testing.T) {
	d := testStar(t, 97, 400, []int{25})
	r := rand.New(rand.NewSource(98))
	y := make([]float64, d.Rows())
	for i := range y {
		if r.Float64() < 0.5 {
			y[i] = 1
		} else {
			y[i] = -1
		}
	}
	cfg := opt.GDConfig{Step: 0.1, MaxIter: 30, Backtracking: true}
	factRes, err := opt.GradientDescent(d, y, opt.Logistic{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	matRes, err := opt.GradientDescent(opt.DenseData{M: d.Materialize()}, y, opt.Logistic{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for j := range factRes.W {
		if math.Abs(factRes.W[j]-matRes.W[j]) > 1e-8 {
			t.Fatalf("GD weight %d differs: %v vs %v", j, factRes.W[j], matRes.W[j])
		}
	}
}

func TestFlopsModel(t *testing.T) {
	// High tuple ratio: factorized must predict a win.
	d := testStar(t, 99, 10000, []int{100})
	if sp := d.Speedup(); sp <= 1 {
		t.Fatalf("speedup = %v, want > 1 at tuple ratio 100", sp)
	}
	// Tuple ratio < 1 (dim bigger than fact): factorized should not win much.
	d2 := testStar(t, 100, 50, []int{200})
	if sp := d2.Speedup(); sp > 1.6 {
		t.Fatalf("speedup = %v, want ≈ ≤ 1 at tuple ratio 0.25", sp)
	}
}

// Property: on random small stars, MatVec/VecMat/Gram all agree with the
// materialized equivalents.
func TestFactorizedEquivalenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nDims := 1 + r.Intn(3)
		dimRows := make([]int, nDims)
		dimFeats := make([]int, nDims)
		for k := range dimRows {
			dimRows[k] = 2 + r.Intn(10)
			dimFeats[k] = 1 + r.Intn(3)
		}
		s, err := workload.GenerateStar(r, workload.StarConfig{
			FactRows:  10 + r.Intn(60),
			FactFeats: 1 + r.Intn(4),
			DimRows:   dimRows,
			DimFeats:  dimFeats,
			Task:      workload.RegressionTask,
			DimSignal: 1,
		})
		if err != nil {
			return false
		}
		d, err := NewStar(s.X[0], s.FKs[1:], s.X[1:])
		if err != nil {
			return false
		}
		m := d.Materialize()
		w := make([]float64, d.Cols())
		for j := range w {
			w[j] = r.NormFloat64()
		}
		mv, wantMv := d.MatVec(w), la.MatVec(m, w)
		for i := range mv {
			if math.Abs(mv[i]-wantMv[i]) > 1e-8 {
				return false
			}
		}
		x := make([]float64, d.Rows())
		for i := range x {
			x[i] = r.NormFloat64()
		}
		vm, wantVm := d.VecMat(x), la.VecMat(x, m)
		for j := range vm {
			if math.Abs(vm[j]-wantVm[j]) > 1e-8 {
				return false
			}
		}
		return d.Gram().Equal(la.Gram(m), 1e-7)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
