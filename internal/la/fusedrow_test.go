package la

import (
	"math"
	"math/rand"
	"testing"
)

// rowFixture is a Row chain's operands: X, u, and the column inputs of its
// two stages (y, and a mask with zeros so the accumulation's zero skips run).
type rowFixture struct {
	x       *Dense
	u       []float64
	y, mask *Dense
}

func newRowFixture(r *rand.Rand, rows, cols int) rowFixture {
	f := rowFixture{x: randMat(r, rows, cols, 0.1), u: make([]float64, cols), y: NewDense(rows, 1), mask: NewDense(rows, 1)}
	for j := range f.u {
		f.u[j] = r.NormFloat64() / 4
	}
	for i := 0; i < rows; i++ {
		f.y.data[i] = float64(r.Intn(2))
		if r.Intn(5) > 0 {
			f.mask.data[i] = r.NormFloat64()
		}
	}
	return f
}

func mustCompile(t *testing.T, ops []FusedOp, nin int) *FuseProgram {
	t.Helper()
	p, err := CompileFused(ops, nin)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// rowPrograms: f = sigmoid(m·s + 0.5) over the margins and a scalar, g =
// (v - y)·mask over f's result, and the single-statement g1 =
// sigmoid(m) - y over the margins.
func rowPrograms(t *testing.T) (f, g, g1 *FuseProgram) {
	f = mustCompile(t, []FusedOp{opsLoad(0), opsLoad(1), opsOp(FuseMul), opsConst(0.5), opsOp(FuseAdd), opsOp(FuseSigmoid)}, 2)
	g = mustCompile(t, []FusedOp{opsLoad(1), opsLoad(0), opsOp(FuseSub), opsLoad(2), opsOp(FuseMul)}, 3)
	g1 = mustCompile(t, []FusedOp{opsLoad(0), opsOp(FuseSigmoid), opsLoad(1), opsOp(FuseSub)}, 2)
	return f, g, g1
}

func sameBits(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestFusedRowBitIdentical: both Row forms equal the unfused sequence —
// MatVecInto, the cell programs over whole columns, VecMatInto — bit for
// bit, at GOMAXPROCS 1, 2 and 4, on shapes that straddle the tile, the
// pairing and Dot's unrolling, and on two over the pool's gate (2¹⁷ scalar
// ops) and its multi-chunk grid, which take the pool path.
func TestFusedRowBitIdentical(t *testing.T) {
	f, g, g1 := rowPrograms(t)
	r := rand.New(rand.NewSource(30))
	multiChunk(t, 2081, 63)
	multiChunk(t, 4099, 64)
	for _, sh := range [][2]int{{1, 1}, {6, 2}, {7, 3}, {12, 6}, {513, 5}, {1001, 33}, {2081, 63}, {4099, 64}} {
		rows, cols := sh[0], sh[1]
		fx := newRowFixture(r, rows, cols)
		scale := ScalarInput(1.5)
		// The unfused plan.
		margins := NewDense(rows, 1)
		MatVecInto(margins.data, fx.x, fx.u)
		for i := 0; i < rows; i++ {
			if d := Dot(fx.x.RowView(i), fx.u); math.Float64bits(d) != math.Float64bits(margins.data[i]) {
				t.Fatalf("%dx%d: MatVecInto row %d = %x, Dot %x", rows, cols, i, math.Float64bits(margins.data[i]), math.Float64bits(d))
			}
		}
		vWant := FusedCell(f, []FusedInput{DenseInput(margins), scale}, rows, 1)
		gWant := FusedCell(g, []FusedInput{DenseInput(fx.y), DenseInput(vWant), DenseInput(fx.mask)}, rows, 1)
		pairWant := VecMat(gWant.data, fx.x)
		g1Want := FusedCell(g1, []FusedInput{DenseInput(margins), DenseInput(fx.y)}, rows, 1)
		singleWant := VecMat(g1Want.data, fx.x)
		for _, procs := range []int{1, 2, 4} {
			withGOMAXPROCS(procs, func() {
				v := make([]float64, rows)
				got := FusedRowInto(make([]float64, cols), v, fx.x, fx.u,
					RowCell{Prog: f, Ins: []FusedInput{{}, scale}, Slot: 0},
					RowCell{Prog: g, Ins: []FusedInput{DenseInput(fx.y), {}, DenseInput(fx.mask)}, Slot: 1})
				if i := sameBits(v, vWant.data); i >= 0 {
					t.Errorf("%dx%d procs %d: v[%d] = %v, unfused %v", rows, cols, procs, i, v[i], vWant.data[i])
				}
				if i := sameBits(got, pairWant); i >= 0 {
					t.Errorf("%dx%d procs %d: pair product[%d] = %v, unfused %v", rows, cols, procs, i, got[i], pairWant[i])
				}
				got = FusedRowInto(make([]float64, cols), nil, fx.x, fx.u, RowCell{},
					RowCell{Prog: g1, Ins: []FusedInput{{}, DenseInput(fx.y)}})
				if i := sameBits(got, singleWant); i >= 0 {
					t.Errorf("%dx%d procs %d: single product[%d] = %v, unfused %v", rows, cols, procs, i, got[i], singleWant[i])
				}
			})
		}
	}
}

// TestFusedRowZeroAlloc: in the serial regime — one range, and the
// multi-chunk grid walked on the calling goroutine — a Row call allocates
// nothing once warm, like the other fused kernels.
func TestFusedRowZeroAlloc(t *testing.T) {
	f, g, g1 := rowPrograms(t)
	r := rand.New(rand.NewSource(31))
	withGOMAXPROCS(1, func() {
		for _, sh := range [][2]int{{300, 20}, {5000, 64}} {
			rows, cols := sh[0], sh[1]
			fx := newRowFixture(r, rows, cols)
			v, dst := make([]float64, rows), make([]float64, cols)
			fc := RowCell{Prog: f, Ins: []FusedInput{{}, ScalarInput(1.5)}}
			gc := RowCell{Prog: g, Ins: []FusedInput{DenseInput(fx.y), {}, DenseInput(fx.mask)}, Slot: 1}
			g1c := RowCell{Prog: g1, Ins: []FusedInput{{}, DenseInput(fx.y)}}
			if a := testing.AllocsPerRun(50, func() { FusedRowInto(dst, v, fx.x, fx.u, fc, gc) }); a != 0 {
				t.Errorf("%dx%d: pair FusedRowInto allocates %v per run, want 0", rows, cols, a)
			}
			if a := testing.AllocsPerRun(50, func() { FusedRowInto(dst, nil, fx.x, fx.u, RowCell{}, g1c) }); a != 0 {
				t.Errorf("%dx%d: single FusedRowInto allocates %v per run, want 0", rows, cols, a)
			}
		}
	})
}

// TestFusedRowRejectsBadShapes: shape errors are programmer errors and
// panic before any work, like the other kernels.
func TestFusedRowRejectsBadShapes(t *testing.T) {
	f, g, _ := rowPrograms(t)
	x := NewDense(10, 3)
	y := NewDense(10, 1)
	gc := RowCell{Prog: g, Ins: []FusedInput{DenseInput(y), {}, DenseInput(y)}, Slot: 1}
	fc := RowCell{Prog: f, Ins: []FusedInput{{}, ScalarInput(1)}}
	cases := map[string]func(){
		"u length":    func() { FusedRowInto(make([]float64, 3), make([]float64, 10), x, make([]float64, 2), fc, gc) },
		"v without f": func() { FusedRowInto(make([]float64, 3), make([]float64, 10), x, make([]float64, 3), RowCell{}, gc) },
		"wide input": func() {
			FusedRowInto(make([]float64, 3), make([]float64, 10), x, make([]float64, 3), fc, RowCell{Prog: g, Ins: []FusedInput{DenseInput(x), {}, DenseInput(y)}, Slot: 1})
		},
		"link range": func() {
			FusedRowInto(make([]float64, 3), make([]float64, 10), x, make([]float64, 3), fc, RowCell{Prog: g, Ins: gc.Ins, Slot: 3})
		},
		"input count": func() {
			FusedRowInto(make([]float64, 3), make([]float64, 10), x, make([]float64, 3), RowCell{Prog: f, Ins: []FusedInput{{}}}, gc)
		},
		"dst length": func() { FusedRowInto(make([]float64, 2), make([]float64, 10), x, make([]float64, 3), fc, gc) },
		"v length":   func() { FusedRowInto(make([]float64, 3), make([]float64, 9), x, make([]float64, 3), fc, gc) },
	}
	for name, call := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			call()
		}()
	}
}

// TestSigmoidInto: the tile path equals Sigmoid element for element,
// out of place and in place.
func TestSigmoidInto(t *testing.T) {
	r := rand.New(rand.NewSource(32))
	x := make([]float64, 1037)
	for i := range x {
		x[i] = r.NormFloat64() * 30
	}
	x[0], x[1], x[2] = 0, math.Inf(-1), math.NaN()
	got := SigmoidInto(make([]float64, len(x)), x)
	for i, v := range x {
		if want := Sigmoid(v); math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Fatalf("SigmoidInto(%g) = %x, Sigmoid %x", v, math.Float64bits(got[i]), math.Float64bits(want))
		}
	}
	if i := sameBits(SigmoidInto(x, x), got); i >= 0 {
		t.Fatalf("in-place SigmoidInto differs at %d", i)
	}
}
