package la

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randSparseDense(r *rand.Rand, rows, cols int, density float64) *Dense {
	m := NewDense(rows, cols)
	for i := range m.data {
		if r.Float64() < density {
			m.data[i] = r.NormFloat64()
		}
	}
	return m
}

func TestCSRRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	m := randSparseDense(r, 40, 25, 0.1)
	s := CSRFromDense(m)
	if !s.ToDense().Equal(m, 0) {
		t.Fatal("CSR round trip mismatch")
	}
	if s.NNZ() != m.NNZ() {
		t.Fatalf("NNZ %d != %d", s.NNZ(), m.NNZ())
	}
}

func TestFromCoords(t *testing.T) {
	s, err := FromCoords(3, 3, []Coord{
		{0, 1, 2}, {2, 2, 5}, {0, 1, 3}, // duplicate (0,1) sums to 5
		{1, 0, 1}, {1, 0, -1}, // duplicate cancels to 0, dropped
	})
	if err != nil {
		t.Fatal(err)
	}
	d := s.ToDense()
	if got := d.At(0, 1); got != 5 {
		t.Fatalf("At(0,1) = %v, want 5", got)
	}
	if got := d.At(1, 0); got != 0 {
		t.Fatalf("At(1,0) = %v, want 0", got)
	}
	if s.NNZ() != 2 {
		t.Fatalf("NNZ = %d, want 2", s.NNZ())
	}
	if _, err := FromCoords(2, 2, []Coord{{5, 0, 1}}); err == nil {
		t.Fatal("want out-of-range error")
	}
}

func TestCSRMatVecAgainstDense(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	m := randSparseDense(r, 80, 33, 0.07)
	s := CSRFromDense(m)
	x := make([]float64, 33)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	got := s.MatVec(x)
	want := MatVec(m, x)
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-10 {
			t.Fatalf("MatVec[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	y := make([]float64, 80)
	for i := range y {
		y[i] = r.NormFloat64()
	}
	gotV := s.VecMatInto(make([]float64, 33), y)
	wantV := VecMat(y, m)
	for j := range gotV {
		if math.Abs(gotV[j]-wantV[j]) > 1e-10 {
			t.Fatalf("VecMat[%d] = %v, want %v", j, gotV[j], wantV[j])
		}
	}
}

// Property: for random sparse matrices, all CSR ops agree with dense ops.
func TestCSREquivalenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows := 1 + r.Intn(30)
		cols := 1 + r.Intn(30)
		m := randSparseDense(r, rows, cols, 0.15)
		s := CSRFromDense(m)
		x := make([]float64, cols)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		mv, dv := s.MatVec(x), MatVec(m, x)
		for i := range mv {
			if math.Abs(mv[i]-dv[i]) > 1e-9 {
				return false
			}
		}
		return s.ToDense().Equal(m, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
