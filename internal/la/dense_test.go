package la

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randDense(r *rand.Rand, rows, cols int) *Dense {
	m := NewDense(rows, cols)
	for i := range m.data {
		m.data[i] = r.NormFloat64()
	}
	return m
}

func TestNewDenseDataValidation(t *testing.T) {
	if _, err := NewDenseData(2, 3, make([]float64, 5)); err == nil {
		t.Fatal("want error for wrong data length")
	}
	if _, err := NewDenseData(0, 3, nil); err == nil {
		t.Fatal("want error for zero rows")
	}
	m, err := NewDenseData(2, 2, []float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.At(1, 0); got != 3 {
		t.Fatalf("At(1,0) = %v, want 3", got)
	}
}

func TestFromRows(t *testing.T) {
	m, err := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	if r, c := m.Dims(); r != 3 || c != 2 {
		t.Fatalf("dims = %dx%d", r, c)
	}
	if m.At(2, 1) != 6 {
		t.Fatalf("At(2,1) = %v", m.At(2, 1))
	}
	if _, err := FromRows([][]float64{{1, 2}, {3}}); err == nil {
		t.Fatal("want error for ragged rows")
	}
	if _, err := FromRows(nil); err == nil {
		t.Fatal("want error for empty input")
	}
}

func TestTranspose(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	m := randDense(r, 37, 53)
	mt := m.T()
	for i := 0; i < 37; i++ {
		for j := 0; j < 53; j++ {
			if m.At(i, j) != mt.At(j, i) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
	if !m.T().T().Equal(m, 0) {
		t.Fatal("double transpose is not identity")
	}
}

func TestSliceAndSelect(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}})
	s := m.Slice(1, 3, 0, 2)
	want, _ := FromRows([][]float64{{4, 5}, {7, 8}})
	if !s.Equal(want, 0) {
		t.Fatalf("Slice = %v", s)
	}
	sc := m.SelectCols([]int{2, 0})
	wantC, _ := FromRows([][]float64{{3, 1}, {6, 4}, {9, 7}})
	if !sc.Equal(wantC, 0) {
		t.Fatalf("SelectCols = %v", sc)
	}
	sr := m.SelectRows([]int{2, 2, 0})
	wantR, _ := FromRows([][]float64{{7, 8, 9}, {7, 8, 9}, {1, 2, 3}})
	if !sr.Equal(wantR, 0) {
		t.Fatalf("SelectRows = %v", sr)
	}
}

func TestElementwiseOps(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := FromRows([][]float64{{10, 20}, {30, 40}})
	diff := b.Clone().Sub(a)
	wantD, _ := FromRows([][]float64{{9, 18}, {27, 36}})
	if !diff.Equal(wantD, 0) {
		t.Fatalf("Sub = %v", diff)
	}
	sc := a.Clone().Scale(2)
	wantS, _ := FromRows([][]float64{{2, 4}, {6, 8}})
	if !sc.Equal(wantS, 0) {
		t.Fatalf("Scale = %v", sc)
	}
	ap := a.Clone().Apply(func(x float64) float64 { return x * x })
	wantA, _ := FromRows([][]float64{{1, 4}, {9, 16}})
	if !ap.Equal(wantA, 0) {
		t.Fatalf("Apply = %v", ap)
	}
}

func TestAggregates(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 2, 0}, {3, 4, 0}})
	if got := m.Sum(); got != 10 {
		t.Fatalf("Sum = %v", got)
	}
	if got := m.SumSq(); got != 1+4+9+16 {
		t.Fatalf("SumSq = %v", got)
	}
	if got := m.NNZ(); got != 4 {
		t.Fatalf("NNZ = %v", got)
	}
	if got := m.Sparsity(); math.Abs(got-2.0/6) > 1e-15 {
		t.Fatalf("Sparsity = %v", got)
	}
	cs := m.ColSums()
	if cs[0] != 4 || cs[1] != 6 || cs[2] != 0 {
		t.Fatalf("ColSums = %v", cs)
	}
	rs := m.RowSums()
	if rs[0] != 3 || rs[1] != 7 {
		t.Fatalf("RowSums = %v", rs)
	}
}

func TestStackHCat(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}})
	b, _ := FromRows([][]float64{{3, 4}, {5, 6}})
	st, err := Stack(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if !st.Equal(want, 0) {
		t.Fatalf("Stack = %v", st)
	}
	c, _ := FromRows([][]float64{{7}, {8}})
	h, err := HCat(b, c)
	if err != nil {
		t.Fatal(err)
	}
	wantH, _ := FromRows([][]float64{{3, 4, 7}, {5, 6, 8}})
	if !h.Equal(wantH, 0) {
		t.Fatalf("HCat = %v", h)
	}
	if _, err := Stack(a, c); err == nil {
		t.Fatal("want column mismatch error")
	}
	if _, err := HCat(a, b); err == nil {
		t.Fatal("want row mismatch error")
	}
}

func TestIdentity(t *testing.T) {
	id := Identity(4)
	r := rand.New(rand.NewSource(2))
	m := randDense(r, 4, 4)
	if !MatMul(id, m).Equal(m, 1e-12) || !MatMul(m, id).Equal(m, 1e-12) {
		t.Fatal("identity does not preserve matrix under multiplication")
	}
}

func TestIndexPanics(t *testing.T) {
	m := NewDense(2, 2)
	for _, fn := range []func(){
		func() { m.At(2, 0) },
		func() { m.At(0, -1) },
		func() { m.Set(-1, 0, 1) },
		func() { m.RowView(5) },
		func() { m.Col(3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("want panic for out-of-range access")
				}
			}()
			fn()
		}()
	}
}

// Property: transpose is an involution and preserves the multiset of values.
func TestTransposeProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows := 1 + r.Intn(20)
		cols := 1 + r.Intn(20)
		m := randDense(r, rows, cols)
		return m.T().T().Equal(m, 0) && math.Abs(m.T().Sum()-m.Sum()) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
