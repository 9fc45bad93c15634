package la

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randSPD builds a random symmetric positive-definite matrix A = BᵀB + n·I.
func randSPD(r *rand.Rand, n int) *Dense {
	b := randDense(r, n, n)
	a := Gram(b)
	for i := 0; i < n; i++ {
		a.Set(i, i, a.At(i, i)+float64(n))
	}
	return a
}

func TestCholeskyReconstruction(t *testing.T) {
	r := rand.New(rand.NewSource(20))
	for _, n := range []int{1, 2, 5, 17, 40} {
		a := randSPD(r, n)
		l := NewDense(n, n)
		if err := cholesky(l, a); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !MatMul(l, l.T()).Equal(a, 1e-8) {
			t.Fatalf("n=%d: L·Lᵀ != A", n)
		}
		// L must be lower triangular.
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if l.At(i, j) != 0 {
					t.Fatalf("n=%d: L not lower triangular at (%d,%d)", n, i, j)
				}
			}
		}
	}
}

func TestCholeskyRejectsNonPD(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3, -1
	if err := cholesky(NewDense(2, 2), a); err != ErrNotPositiveDefinite {
		t.Fatalf("err = %v, want ErrNotPositiveDefinite", err)
	}
	if _, err := SolveSPD(a, []float64{1, 1}); err != ErrNotPositiveDefinite {
		t.Fatalf("SolveSPD err = %v, want ErrNotPositiveDefinite", err)
	}
	if _, err := SolveSPD(NewDense(2, 3), []float64{1, 1}); err == nil {
		t.Fatal("want error for non-square input")
	}
}

func TestSolveSPD(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	a := randSPD(r, 12)
	xTrue := make([]float64, 12)
	for i := range xTrue {
		xTrue[i] = r.NormFloat64()
	}
	b := MatVec(a, xTrue)
	x, err := SolveSPD(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if math.Abs(x[i]-xTrue[i]) > 1e-8 {
			t.Fatalf("x[%d] = %v, want %v", i, x[i], xTrue[i])
		}
	}
}

func TestQRReconstruction(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	for _, dims := range [][2]int{{5, 3}, {20, 7}, {50, 50}, {9, 1}} {
		a := randDense(r, dims[0], dims[1])
		qr, err := QRDecompose(a)
		if err != nil {
			t.Fatal(err)
		}
		rMat := qr.R()
		// Verify via the normal equations: RᵀR must equal AᵀA.
		if !Gram(rMat).Equal(Gram(a), 1e-7) {
			t.Fatalf("dims %v: RᵀR != AᵀA", dims)
		}
		// R must be upper triangular.
		for i := 0; i < dims[1]; i++ {
			for j := 0; j < i; j++ {
				if rMat.At(i, j) != 0 {
					t.Fatalf("R not upper triangular at (%d,%d)", i, j)
				}
			}
		}
	}
}

func TestQRRejectsWide(t *testing.T) {
	if _, err := QRDecompose(NewDense(2, 5)); err == nil {
		t.Fatal("want error for wide matrix")
	}
}

func TestQtVecPreservesNorm(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	a := randDense(r, 30, 8)
	qr, _ := QRDecompose(a)
	b := make([]float64, 30)
	for i := range b {
		b[i] = r.NormFloat64()
	}
	y := qr.QtVec(b)
	if math.Abs(Norm2(y)-Norm2(b)) > 1e-9 {
		t.Fatalf("Qᵀ changed the norm: %v vs %v", Norm2(y), Norm2(b))
	}
}

func TestLstSqExact(t *testing.T) {
	// Square nonsingular system: least-squares solution is exact.
	r := rand.New(rand.NewSource(24))
	a := randSPD(r, 9)
	xTrue := make([]float64, 9)
	for i := range xTrue {
		xTrue[i] = r.NormFloat64()
	}
	b := MatVec(a, xTrue)
	x, err := LstSq(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if math.Abs(x[i]-xTrue[i]) > 1e-7 {
			t.Fatalf("x[%d] = %v, want %v", i, x[i], xTrue[i])
		}
	}
}

func TestLstSqOverdetermined(t *testing.T) {
	// The least-squares residual must be orthogonal to the column space.
	r := rand.New(rand.NewSource(25))
	a := randDense(r, 60, 6)
	b := make([]float64, 60)
	for i := range b {
		b[i] = r.NormFloat64()
	}
	x, err := LstSq(a, b)
	if err != nil {
		t.Fatal(err)
	}
	resid := SubVec(MatVec(a, x), b)
	grad := VecMat(resid, a) // Aᵀ(Ax−b) should be ~0
	if NormInf(grad) > 1e-8 {
		t.Fatalf("normal equations violated: |Aᵀr|∞ = %v", NormInf(grad))
	}
}

// Property: SolveSPD returns a vector satisfying A·x ≈ b for random SPD A.
func TestSolveSPDProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(15)
		a := randSPD(r, n)
		b := make([]float64, n)
		for i := range b {
			b[i] = r.NormFloat64()
		}
		x, err := SolveSPD(a, b)
		if err != nil {
			return false
		}
		ax := MatVec(a, x)
		for i := range b {
			if math.Abs(ax[i]-b[i]) > 1e-6*(1+math.Abs(b[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: QR solve and Cholesky (normal-equations) solve agree on
// well-conditioned overdetermined systems.
func TestQRvsNormalEquations(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(8)
		m := n*3 + r.Intn(20)
		a := randDense(r, m, n)
		b := make([]float64, m)
		for i := range b {
			b[i] = r.NormFloat64()
		}
		x1, err := LstSq(a, b)
		if err != nil {
			return true // skip ill-conditioned draws
		}
		g := Gram(a)
		x2, err := SolveSPD(g, XtY(a, b))
		if err != nil {
			return true
		}
		for i := range x1 {
			if math.Abs(x1[i]-x2[i]) > 1e-5*(1+math.Abs(x1[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
