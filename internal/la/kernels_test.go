package la

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// naiveMatMul is the reference triple loop used to validate optimized kernels.
func naiveMatMul(a, b *Dense) *Dense {
	out := NewDense(a.rows, b.cols)
	for i := 0; i < a.rows; i++ {
		for j := 0; j < b.cols; j++ {
			var s float64
			for k := 0; k < a.cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func TestMatMulMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, dims := range [][3]int{{1, 1, 1}, {3, 4, 5}, {17, 9, 23}, {64, 32, 48}, {130, 70, 90}} {
		a := randDense(r, dims[0], dims[1])
		b := randDense(r, dims[1], dims[2])
		got := MatMul(a, b)
		want := naiveMatMul(a, b)
		if !got.Equal(want, 1e-10) {
			t.Fatalf("MatMul mismatch for dims %v", dims)
		}
	}
}

func TestMatMulShapePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on inner-dimension mismatch")
		}
	}()
	MatMul(NewDense(2, 3), NewDense(4, 2))
}

func TestMatVecVecMat(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	m := randDense(r, 29, 13)
	x := make([]float64, 13)
	y := make([]float64, 29)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	for i := range y {
		y[i] = r.NormFloat64()
	}
	mv := MatVec(m, x)
	for i := 0; i < 29; i++ {
		want := Dot(m.RowView(i), x)
		if math.Abs(mv[i]-want) > 1e-12 {
			t.Fatalf("MatVec[%d] = %v, want %v", i, mv[i], want)
		}
	}
	vm := VecMat(y, m)
	mtv := MatVec(m.T(), y)
	for j := range vm {
		if math.Abs(vm[j]-mtv[j]) > 1e-10 {
			t.Fatalf("VecMat[%d] = %v, want %v", j, vm[j], mtv[j])
		}
	}
}

// VecMat must agree with the sequential path when forced parallel (large input).
func TestVecMatParallelConsistency(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	m := randDense(r, 4000, 100) // above the pool's gate
	y := make([]float64, 4000)
	for i := range y {
		y[i] = r.NormFloat64()
	}
	got := VecMat(y, m)
	want := MatVec(m.T(), y)
	for j := range got {
		if math.Abs(got[j]-want[j]) > 1e-8 {
			t.Fatalf("parallel VecMat[%d] = %v, want %v", j, got[j], want[j])
		}
	}
}

func TestGram(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	x := randDense(r, 57, 11)
	got := Gram(x)
	want := MatMul(x.T(), x)
	if !got.Equal(want, 1e-10) {
		t.Fatal("Gram != XᵀX")
	}
	// Symmetry.
	if !got.Equal(got.T(), 1e-12) {
		t.Fatal("Gram result not symmetric")
	}
}

func TestGramParallel(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	x := randDense(r, 3000, 40)
	got := Gram(x)
	want := MatMul(x.T(), x)
	if !got.Equal(want, 1e-7) {
		t.Fatal("parallel Gram != XᵀX")
	}
}

func TestTraceAndTraceMatMul(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	a := randDense(r, 14, 9)
	b := randDense(r, 9, 14)
	got := TraceMatMul(a, b)
	want := Trace(MatMul(a, b))
	if math.Abs(got-want) > 1e-10 {
		t.Fatalf("TraceMatMul = %v, want %v", got, want)
	}
}

func TestVectorHelpers(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{5, 4, 3, 2, 1}
	if got := Dot(x, y); got != 35 {
		t.Fatalf("Dot = %v", got)
	}
	z := CloneVec(y)
	Axpy(2, x, z)
	want := []float64{7, 8, 9, 10, 11}
	for i := range want {
		if z[i] != want[i] {
			t.Fatalf("Axpy = %v", z)
		}
	}
	if got := Norm2([]float64{3, 4}); got != 5 {
		t.Fatalf("Norm2 = %v", got)
	}
	s := SubVec(x, y)
	for i := range x {
		if s[i]+y[i] != x[i] {
			t.Fatal("SubVec does not invert addition")
		}
	}
}

// Property: associativity (A·B)·C = A·(B·C) within numerical tolerance.
func TestMatMulAssociativity(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p, q, s, u := 1+r.Intn(10), 1+r.Intn(10), 1+r.Intn(10), 1+r.Intn(10)
		a := randDense(r, p, q)
		b := randDense(r, q, s)
		c := randDense(r, s, u)
		lhs := MatMul(MatMul(a, b), c)
		rhs := MatMul(a, MatMul(b, c))
		return lhs.Equal(rhs, 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: (A·B)ᵀ = Bᵀ·Aᵀ.
func TestMatMulTransposeProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p, q, s := 1+r.Intn(12), 1+r.Intn(12), 1+r.Intn(12)
		a := randDense(r, p, q)
		b := randDense(r, q, s)
		return MatMul(a, b).T().Equal(MatMul(b.T(), a.T()), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
