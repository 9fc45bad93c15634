package la

import (
	"math/rand"
	"strings"
	"testing"
)

func TestAccessorsAndMutators(t *testing.T) {
	m := NewDense(3, 2)
	if m.Rows() != 3 || m.Cols() != 2 {
		t.Fatalf("Rows/Cols = %d/%d", m.Rows(), m.Cols())
	}
	m.Set(1, 0, 5)
	m.Zero()
	if m.Sum() != 0 {
		t.Fatalf("Zero sum = %v", m.Sum())
	}
	raw := m.RawData()
	raw[0] = 9
	if m.At(0, 0) != 9 {
		t.Fatal("RawData does not alias storage")
	}
}

func TestNormsAndString(t *testing.T) {
	m, _ := FromRows([][]float64{{3, -4}, {0, 0}})
	// Small matrices render fully; large ones summarize.
	if s := m.String(); !strings.Contains(s, "3") || !strings.Contains(s, "-4") {
		t.Fatalf("String = %s", s)
	}
	big := NewDense(20, 20)
	if s := big.String(); !strings.Contains(s, "20x20") {
		t.Fatalf("big String = %s", s)
	}
	sp := CSRFromDense(m)
	if s := sp.String(); !strings.Contains(s, "nnz=2") {
		t.Fatalf("CSR String = %s", s)
	}
	if sp.Rows() != 2 || sp.Cols() != 2 {
		t.Fatal("CSR Rows/Cols wrong")
	}
}

func TestEqualShapes(t *testing.T) {
	a := NewDense(2, 2)
	b := NewDense(2, 3)
	if a.Equal(b, 1) {
		t.Fatal("different shapes must not be Equal")
	}
}

func TestNewDensePanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	NewDense(0, 1)
}

// Force the sequential fallback paths of the parallel kernels under
// GOMAXPROCS=1-style small work.
func TestSmallKernels(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	a := randDense(r, 2, 2)
	b := randDense(r, 2, 2)
	if !MatMul(a, b).Equal(naiveMatMul(a, b), 1e-12) {
		t.Fatal("small MatMul mismatch")
	}
	g := Gram(a)
	if !g.Equal(MatMul(a.T(), a), 1e-12) {
		t.Fatal("small Gram mismatch")
	}
}
