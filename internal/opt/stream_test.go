package opt

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"dmml/internal/la"
)

// fakeBlocks serves a dense matrix as an opt.BlockData with fixed-size row
// blocks, for testing the streaming evaluation without the ooc machinery.
type fakeBlocks struct {
	m         *la.Dense
	blockRows int
	failAt    int // block index to fail at, -1 for never
	okPasses  int // full passes that succeed before failAt takes effect
}

func (f *fakeBlocks) Rows() int { return f.m.Rows() }
func (f *fakeBlocks) Cols() int { return f.m.Cols() }

func (f *fakeBlocks) NumBlocks() int {
	return (f.Rows() + f.blockRows - 1) / f.blockRows
}

func (f *fakeBlocks) ForEachBlock(fn func(RowBlock) error) error {
	f.okPasses--
	for i := 0; i < f.NumBlocks(); i++ {
		if i == f.failAt && f.okPasses < 0 {
			return fmt.Errorf("injected block failure at %d", i)
		}
		r0 := i * f.blockRows
		nb := f.blockRows
		if r0+nb > f.Rows() {
			nb = f.Rows() - r0
		}
		if err := fn(&fakeBlock{f.m, r0, nb}); err != nil {
			return err
		}
	}
	return nil
}

type fakeBlock struct {
	m        *la.Dense
	startRow int
	rows     int
}

func (b *fakeBlock) StartRow() int { return b.startRow }
func (b *fakeBlock) Rows() int     { return b.rows }
func (b *fakeBlock) Cols() int     { return b.m.Cols() }

func (b *fakeBlock) MatVecInto(dst, v []float64) []float64 {
	for i := 0; i < b.rows; i++ {
		dst[i] = la.Dot(b.m.RowView(b.startRow+i), v)
	}
	return dst
}

func (b *fakeBlock) VecMatAccum(out, x []float64) {
	for i, xi := range x {
		la.Axpy(xi, b.m.RowView(b.startRow+i), out)
	}
}

// TestStreamMatchesBulk: GradientDescent over a BlockData source must produce
// the same iterates as over the plain dense source — the streaming evaluation
// is the same computation in block order.
func TestStreamMatchesBulk(t *testing.T) {
	r := rand.New(rand.NewSource(40))
	m, y := randProblem(r, 500, 7)
	cfg := GDConfig{Step: 0.2, MaxIter: 12, L2: 0.05}
	want, err := GradientDescent(DenseData{M: m}, y, Logistic{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, br := range []int{1, 64, 100, 500, 512} {
		got, err := GradientDescent(&fakeBlocks{m: m, blockRows: br, failAt: -1}, y, Logistic{}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for j := range want.W {
			if math.Abs(got.W[j]-want.W[j]) > 1e-10 {
				t.Fatalf("blockRows=%d w[%d] = %v, want %v", br, j, got.W[j], want.W[j])
			}
		}
	}
}

// TestStreamLossAndGradient checks the public entry point dispatches too.
func TestStreamLossAndGradient(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	m, y := randProblem(r, 300, 5)
	w := make([]float64, 5)
	for j := range w {
		w[j] = r.NormFloat64()
	}
	wantL, wantG, err := LossAndGradient(DenseData{M: m}, y, w, Squared{}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	gotL, gotG, err := LossAndGradient(&fakeBlocks{m: m, blockRows: 77, failAt: -1}, y, w, Squared{}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(gotL-wantL) > 1e-10 {
		t.Fatalf("loss = %v, want %v", gotL, wantL)
	}
	for j := range wantG {
		if math.Abs(gotG[j]-wantG[j]) > 1e-10 {
			t.Fatalf("grad[%d] = %v, want %v", j, gotG[j], wantG[j])
		}
	}
}

// A block source failing mid-pass is an error from GradientDescent — at the
// initial evaluation or inside the loop.
func TestStreamBlockFailure(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	m, y := randProblem(r, 200, 4)
	for okPasses := 0; okPasses < 3; okPasses++ {
		_, err := GradientDescent(&fakeBlocks{m: m, blockRows: 50, failAt: 2, okPasses: okPasses}, y, Logistic{},
			GDConfig{Step: 0.1, MaxIter: 3, Backtracking: true})
		if err == nil || !strings.Contains(err.Error(), "injected block failure at 2") {
			t.Fatalf("after %d good passes GradientDescent err = %v, want the block failure", okPasses, err)
		}
	}
}

// A block source failing mid-pass is an error from LossAndGradient, with no
// gradient, however many good passes came before it.
func TestLossAndGradientBlockFailureIsAnError(t *testing.T) {
	r := rand.New(rand.NewSource(153))
	m, y := randProblem(r, 200, 4)
	w := make([]float64, 4)
	for okPasses := 0; okPasses < 3; okPasses++ {
		src := &fakeBlocks{m: m, blockRows: 50, failAt: 2, okPasses: okPasses}
		for pass := 0; pass < okPasses; pass++ {
			if _, _, err := LossAndGradient(src, y, w, Logistic{}, 0); err != nil {
				t.Fatalf("good pass %d of %d: %v", pass+1, okPasses, err)
			}
		}
		_, grad, err := LossAndGradient(src, y, w, Logistic{}, 0)
		if err == nil || !strings.Contains(err.Error(), "injected block failure at 2") || grad != nil {
			t.Fatalf("after %d good passes LossAndGradient = %v, %v; want the block failure and no gradient", okPasses, grad, err)
		}
	}
}

// shapeOnly reports a shape but neither evaluation contract.
type shapeOnly struct{ rows, cols int }

func (s shapeOnly) Rows() int { return s.rows }
func (s shapeOnly) Cols() int { return s.cols }

// A source that is neither BulkData nor BlockData is refused at entry.
func TestSolversRefuseShapeOnlySource(t *testing.T) {
	src := shapeOnly{3, 2}
	y := []float64{1, -1, 1}
	if _, err := GradientDescent(src, y, Logistic{}, GDConfig{Step: 0.1, MaxIter: 2}); err == nil || !strings.Contains(err.Error(), "neither") {
		t.Fatalf("GradientDescent err = %v, want the contract refusal", err)
	}
	if _, _, err := LossAndGradient(src, y, make([]float64, 2), Logistic{}, 0); err == nil || !strings.Contains(err.Error(), "neither") {
		t.Fatalf("LossAndGradient err = %v, want the contract refusal", err)
	}
}

func TestStreamingSGDValidation(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	m, y := randProblem(r, 100, 3)
	fb := &fakeBlocks{m: m, blockRows: 10, failAt: -1}
	if _, err := StreamingSGD(fb, y, Logistic{}, StreamConfig{Step: 0, Epochs: 1}); err == nil {
		t.Fatal("want error for zero step")
	}
	if _, err := StreamingSGD(fb, y, Logistic{}, StreamConfig{Step: 0.1, Epochs: 0}); err == nil {
		t.Fatal("want error for zero epochs")
	}
	if _, err := StreamingSGD(fb, y[:50], Logistic{}, StreamConfig{Step: 0.1, Epochs: 1}); err == nil {
		t.Fatal("want error for label length mismatch")
	}
	fb.failAt = 1
	if _, err := StreamingSGD(fb, y, Logistic{}, StreamConfig{Step: 0.1, Epochs: 1}); err == nil {
		t.Fatal("want propagated block failure")
	}
}

// onePassBlock is a fakeBlock with the one-pass capability, computed by the
// same three passes, counting its calls.
type onePassBlock struct {
	*fakeBlock
	calls *int
}

func (b onePassBlock) LossGradAccum(grad, margins, derivs, w, y []float64, tile func(derivs, margins, y []float64) float64) float64 {
	*b.calls++
	b.MatVecInto(margins, w)
	total := tile(derivs, margins, y)
	b.VecMatAccum(grad, derivs)
	return total
}

// TestBlockStepProbesOnePass: blockStep hands a block with the one-pass
// capability the loss's tile, and runs the three passes on any other block;
// with the same arithmetic behind both, the results are the same bits, and
// neither the probe nor either step allocates.
func TestBlockStepProbesOnePass(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	m, y := randProblem(r, 300, 5)
	for i := range y {
		y[i] = math.Copysign(1, y[i])
	}
	w := make([]float64, 5)
	for j := range w {
		w[j] = r.NormFloat64()
	}
	calls := 0
	plain := &fakeBlock{m, 100, 150}
	var onePass RowBlock = onePassBlock{plain, &calls}
	for _, loss := range []Loss{Squared{}, Logistic{}} {
		run := func(b RowBlock) (float64, []float64, []float64) {
			grad := make([]float64, 5)
			margins, derivs := make([]float64, 300), make([]float64, 300)
			return blockStep(b, loss, grad, w, y, margins, derivs), grad, derivs
		}
		before := calls
		wantL, wantG, wantD := run(plain)
		gotL, gotG, gotD := run(onePass)
		if calls != before+1 {
			t.Fatalf("%T: the one-pass block was called %d times, want once", loss, calls-before)
		}
		if math.Float64bits(gotL) != math.Float64bits(wantL) || !sameBits(gotG, wantG) || !sameBits(gotD, wantD) {
			t.Fatalf("%T: one-pass step %v %v, three passes %v %v", loss, gotL, gotG, wantL, wantG)
		}
		grad := make([]float64, 5)
		margins, derivs := make([]float64, 300), make([]float64, 300)
		for name, b := range map[string]RowBlock{"three passes": plain, "one pass": onePass} {
			if a := testing.AllocsPerRun(20, func() { blockStep(b, loss, grad, w, y, margins, derivs) }); a != 0 {
				t.Errorf("%T %s: blockStep allocates %v per run, want 0", loss, name, a)
			}
		}
	}
}
