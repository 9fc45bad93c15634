package ooc

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"dmml/internal/la"
	"dmml/internal/opt"
	"dmml/internal/storage"
)

// testMatrix builds a quantized feature matrix: low-cardinality columns that
// CLA compresses well, plus one continuous column that falls back to UC.
func testMatrix(r *rand.Rand, rows, cols int) *la.Dense {
	m := la.NewDense(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols-1; j++ {
			m.Set(i, j, float64(r.Intn(4+j%5)))
		}
		m.Set(i, cols-1, r.NormFloat64())
	}
	return m
}

func newPool(t *testing.T, budget int64) *storage.BufferPool {
	t.Helper()
	bp, err := storage.NewBufferPoolBytes(budget, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return bp
}

func TestFromDenseRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	src := testMatrix(r, 1000, 6)
	for _, opts := range []Options{{BlockRows: 128}, {BlockRows: 128, NoCompress: true}, {BlockRows: 333}} {
		bp := newPool(t, 1<<20)
		m, err := FromDense(bp, src, opts)
		if err != nil {
			t.Fatal(err)
		}
		if m.Rows() != 1000 || m.Cols() != 6 {
			t.Fatalf("dims %dx%d", m.Rows(), m.Cols())
		}
		back, err := m.ToDense()
		if err != nil {
			t.Fatal(err)
		}
		if !back.Equal(src, 0) {
			t.Fatalf("opts %+v: round trip mismatch", opts)
		}
		if err := m.Drop(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestOpsMatchDense(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	src := testMatrix(r, 900, 5)
	for _, raw := range []bool{false, true} {
		// Budget far below the matrix size so ops must stream through spill,
		// in both the compressed and the uncompressed page layout, yet over
		// the two 100×5 uncompressed pages (4152 bytes each) the prefetcher
		// pins at once.
		bp := newPool(t, 9*1024)
		m, err := FromDense(bp, src, Options{BlockRows: 100, NoCompress: raw})
		if err != nil {
			t.Fatal(err)
		}
		if raw != (m.CompressedBlocks() == 0) {
			t.Fatalf("NoCompress=%v but %d blocks compressed", raw, m.CompressedBlocks())
		}
		opsMatchDense(t, r, m, src)
		if bp.Stats().SpillReads == 0 {
			t.Fatalf("NoCompress=%v: ops never reloaded a spilled block; test is vacuous", raw)
		}
	}
}

func opsMatchDense(t *testing.T, r *rand.Rand, m *Matrix, src *la.Dense) {
	t.Helper()
	for _, prefetch := range []bool{false, true} {
		m.prefetch = prefetch
		v := make([]float64, 5)
		x := make([]float64, 900)
		for i := range v {
			v[i] = r.NormFloat64()
		}
		for i := range x {
			x[i] = r.NormFloat64()
		}
		mv, wantMV := make([]float64, m.Rows()), la.MatVec(src, v)
		if err := m.MatVec(mv, v); err != nil {
			t.Fatal(err)
		}
		for i := range mv {
			if math.Abs(mv[i]-wantMV[i]) > 1e-9 {
				t.Fatalf("prefetch=%v MatVec[%d] = %v, want %v", prefetch, i, mv[i], wantMV[i])
			}
		}
		vm, wantVM := make([]float64, m.Cols()), la.VecMat(x, src)
		if err := m.VecMat(vm, x); err != nil {
			t.Fatal(err)
		}
		for j := range vm {
			if math.Abs(vm[j]-wantVM[j]) > 1e-9 {
				t.Fatalf("prefetch=%v VecMat[%d] = %v, want %v", prefetch, j, vm[j], wantVM[j])
			}
		}
		g, err := m.Gram()
		if err != nil {
			t.Fatal(err)
		}
		wantG := la.Gram(src)
		if !g.Equal(wantG, 1e-9) {
			t.Fatalf("prefetch=%v Gram mismatch", prefetch)
		}
		cs, err := m.ColSums()
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 5; j++ {
			want := 0.0
			for i := 0; i < 900; i++ {
				want += src.At(i, j)
			}
			if math.Abs(cs[j]-want) > 1e-9 {
				t.Fatalf("ColSums[%d] = %v, want %v", j, cs[j], want)
			}
		}
	}
}

// TestBoundedResidency is the core out-of-core property: streaming a matrix
// many times the pool budget keeps resident bytes at or under the budget no
// matter how many passes run, with or without prefetch.
func TestBoundedResidency(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	src := testMatrix(r, 4000, 8)   // 256 KB dense
	const budget = int64(32 * 1024) // 8x smaller than the data
	bp := newPool(t, budget)
	m, err := FromDense(bp, src, Options{BlockRows: 250})
	if err != nil {
		t.Fatal(err)
	}
	for _, prefetch := range []bool{false, true} {
		m.prefetch = prefetch
		for pass := 0; pass < 3; pass++ {
			maxRes := int64(0)
			err := m.ForEachBlock(func(b opt.RowBlock) error {
				if res := bp.ResidentBytes(); res > maxRes {
					maxRes = res
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if maxRes > budget {
				t.Fatalf("prefetch=%v resident bytes peaked at %d, budget %d", prefetch, maxRes, budget)
			}
		}
	}
	if bp.Stats().Evictions == 0 {
		t.Fatal("stream never evicted; budget not actually constraining")
	}
}

// TestPrefetchPinsBounded verifies the double-buffer invariant directly: with
// prefetch on, at most two blocks are ever pinned at once.
func TestPrefetchPinsBounded(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	src := testMatrix(r, 2000, 4)
	bp := newPool(t, 1<<20) // generous budget: pins, not evictions, are under test
	m, err := FromDense(bp, src, Options{BlockRows: 100})
	if err != nil {
		t.Fatal(err)
	}
	m.prefetch = true
	blockBytes := m.PagedBytes()/int64(m.NumBlocks()) + 8 // upper bound per block
	seen := 0
	err = m.ForEachBlock(func(b opt.RowBlock) error {
		seen++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != m.NumBlocks() {
		t.Fatalf("saw %d blocks, want %d", seen, m.NumBlocks())
	}
	_ = blockBytes
}

func TestForEachBlockErrorStopsStream(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	src := testMatrix(r, 1000, 4)
	bp := newPool(t, 1<<20)
	m, err := FromDense(bp, src, Options{BlockRows: 100})
	if err != nil {
		t.Fatal(err)
	}
	boom := fmt.Errorf("boom")
	for _, prefetch := range []bool{false, true} {
		m.prefetch = prefetch
		calls := 0
		err := m.ForEachBlock(func(b opt.RowBlock) error {
			calls++
			if calls == 3 {
				return boom
			}
			return nil
		})
		if err != boom {
			t.Fatalf("prefetch=%v err = %v, want boom", prefetch, err)
		}
		if calls != 3 {
			t.Fatalf("prefetch=%v callback ran %d times after error", prefetch, calls)
		}
	}
	// All pins must have been released: dropping the owner succeeds only if
	// nothing is pinned.
	if err := m.Drop(); err != nil {
		t.Fatalf("pins leaked after aborted streams: %v", err)
	}
}

func TestReadCSVStreaming(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	src := testMatrix(r, 500, 3)
	var sb strings.Builder
	for i := 0; i < 500; i++ {
		fmt.Fprintf(&sb, "%g,%g,%g\n", src.At(i, 0), src.At(i, 1), src.At(i, 2))
	}
	bp := newPool(t, 1<<20)
	m, err := ReadCSV(bp, strings.NewReader(sb.String()), Options{BlockRows: 64})
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows() != 500 || m.Cols() != 3 {
		t.Fatalf("dims %dx%d", m.Rows(), m.Cols())
	}
	back, err := m.ToDense()
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(src, 0) {
		t.Fatal("csv round trip mismatch")
	}
}

func TestReadCSVErrors(t *testing.T) {
	bp := newPool(t, 1<<20)
	if _, err := ReadCSV(bp, strings.NewReader(""), Options{}); err == nil {
		t.Fatal("want error for empty input")
	}
	if _, err := ReadCSV(bp, strings.NewReader("1,2\n3,nope\n"), Options{}); err == nil {
		t.Fatal("want error for non-numeric field")
	}
}

// TestReadCSVMalformedRowDropsPages: a malformed row after two full blocks
// — the first already spilled by the second — is an error, and the builder's
// pages leave the pool: nothing resident, no spill file.
func TestReadCSVMalformedRowDropsPages(t *testing.T) {
	dir := t.TempDir()
	bp, err := storage.NewBufferPoolBytes(2000, dir) // one 64x3 UC page
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for i := 0; i < 2*64+5; i++ {
		fmt.Fprintf(&sb, "%d,%d,%d\n", i, i%3, -i)
	}
	sb.WriteString("1,2,oops\n")
	_, err = ReadCSV(bp, strings.NewReader(sb.String()), Options{BlockRows: 64, NoCompress: true})
	if err == nil || !strings.Contains(err.Error(), "oops") {
		t.Fatalf("err = %v, want the malformed row's error", err)
	}
	if st := bp.Stats(); st.SpillWrites == 0 {
		t.Fatalf("no block was spilled before the bad row (%+v); test is vacuous", st)
	}
	if got := bp.ResidentBytes(); got != 0 {
		t.Fatalf("%d resident bytes left after a failed read", got)
	}
	if left, err := os.ReadDir(dir); err != nil || len(left) != 0 {
		t.Fatalf("spill files left after a failed read: %v, %v", left, err)
	}
}

// TestSolverEquivalence trains the same logistic regression on the dense
// matrix and its out-of-core form; GradientDescent must take the identical
// path (the streaming evaluation is algebraically the same computation).
func TestSolverEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	n, d := 1200, 6
	src := testMatrix(r, n, d)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		if r.Float64() < 0.5 {
			y[i] = 1
		} else {
			y[i] = -1
		}
	}
	cfg := opt.GDConfig{Step: 0.1, MaxIter: 15, L2: 0.01}
	want, err := opt.GradientDescent(opt.DenseData{M: src}, y, opt.Logistic{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, prefetch := range []bool{false, true} {
		bp := newPool(t, 8*1024) // force spill during training
		m, err := FromDense(bp, src, Options{BlockRows: 128})
		if err != nil {
			t.Fatal(err)
		}
		m.prefetch = prefetch
		got, err := opt.GradientDescent(m, y, opt.Logistic{}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for j := range want.W {
			if math.Abs(got.W[j]-want.W[j]) > 1e-8 {
				t.Fatalf("prefetch=%v w[%d] = %v, want %v", prefetch, j, got.W[j], want.W[j])
			}
		}
	}
}

// TestUncompressedBlockStepMatchesThreePass: a NoCompress block is a matrix
// of UC groups, so it carries the one-pass block step. Its margins and
// derivatives are the three passes' bit for bit (MatVecInto, the logistic
// tile, VecMatAccum), its loss and gradient theirs to 1e-12 relative.
func TestUncompressedBlockStepMatchesThreePass(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	src := testMatrix(r, 1000, 6)
	y := make([]float64, src.Rows())
	for i := range y {
		y[i] = float64(2*r.Intn(2) - 1)
	}
	w, grad0 := make([]float64, src.Cols()), make([]float64, src.Cols())
	for j := range w {
		w[j], grad0[j] = r.NormFloat64(), r.NormFloat64()
	}
	m, err := FromDense(newPool(t, 1<<20), src, Options{BlockRows: 333, NoCompress: true})
	if err != nil {
		t.Fatal(err)
	}
	blocks := 0
	err = m.ForEachBlock(func(rb opt.RowBlock) error {
		blocks++
		fb, ok := rb.(interface {
			LossGradAccum(grad, margins, derivs, w, y []float64, tile func(derivs, margins, y []float64) float64) float64
		})
		if !ok {
			t.Fatalf("block at row %d has no one-pass step", rb.StartRow())
		}
		yb := y[rb.StartRow() : rb.StartRow()+rb.Rows()]
		wantMargins := rb.MatVecInto(make([]float64, rb.Rows()), w)
		wantDerivs := make([]float64, rb.Rows())
		wantLoss := la.LogisticLossInto(wantDerivs, wantMargins, yb)
		wantGrad := append([]float64(nil), grad0...)
		rb.VecMatAccum(wantGrad, wantDerivs)

		grad := append([]float64(nil), grad0...)
		margins, derivs := make([]float64, rb.Rows()), make([]float64, rb.Rows())
		loss := fb.LossGradAccum(grad, margins, derivs, w, yb, la.LogisticLossInto)
		for i := range margins {
			if math.Float64bits(margins[i]) != math.Float64bits(wantMargins[i]) || math.Float64bits(derivs[i]) != math.Float64bits(wantDerivs[i]) {
				t.Fatalf("row %d: margin %v, deriv %v; three-pass %v, %v", rb.StartRow()+i, margins[i], derivs[i], wantMargins[i], wantDerivs[i])
			}
		}
		if d := math.Abs(loss - wantLoss); d > 1e-12*math.Abs(wantLoss) {
			t.Errorf("block at row %d: loss %v, three-pass %v", rb.StartRow(), loss, wantLoss)
		}
		scale := 0.0
		for _, g := range wantGrad {
			scale = max(scale, math.Abs(g))
		}
		for j := range wantGrad {
			if d := math.Abs(grad[j] - wantGrad[j]); d > 1e-12*scale {
				t.Errorf("block at row %d: grad[%d] = %v, three-pass %v", rb.StartRow(), j, grad[j], wantGrad[j])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if blocks != 4 || m.CompressedBlocks() != 0 {
		t.Fatalf("%d blocks, %d compressed; want 4 uncompressed", blocks, m.CompressedBlocks())
	}
}

// TestStreamingSGDConverges checks the block-wise SGD fits a separable
// problem out-of-core.
func TestStreamingSGDConverges(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	n, d := 2000, 4
	src := la.NewDense(n, d)
	y := make([]float64, n)
	wTrue := []float64{1.5, -2, 0.5, 1}
	for i := 0; i < n; i++ {
		s := 0.0
		for j := 0; j < d; j++ {
			v := float64(r.Intn(5)) - 2
			src.Set(i, j, v)
			s += v * wTrue[j]
		}
		if s > 0 {
			y[i] = 1
		} else {
			y[i] = -1
		}
	}
	bp := newPool(t, 8*1024)
	m, err := FromDense(bp, src, Options{BlockRows: 200})
	if err != nil {
		t.Fatal(err)
	}
	m.prefetch = true
	res, err := opt.StreamingSGD(m, y, opt.Logistic{}, opt.StreamConfig{Step: 0.5, Epochs: 30, Decay: 0.95})
	if err != nil {
		t.Fatal(err)
	}
	first, last := res.History[0], res.History[len(res.History)-1]
	if last >= first/2 {
		t.Fatalf("streaming SGD barely converged: loss %v -> %v", first, last)
	}
	// Fitted direction should correlate with the generating weights.
	dot, nw, nt := 0.0, 0.0, 0.0
	for j := range wTrue {
		dot += res.W[j] * wTrue[j]
		nw += res.W[j] * res.W[j]
		nt += wTrue[j] * wTrue[j]
	}
	if cos := dot / math.Sqrt(nw*nt); cos < 0.9 {
		t.Fatalf("fitted direction cos=%v with truth", cos)
	}
}

func TestBuilderErrors(t *testing.T) {
	bp := newPool(t, 1<<20)
	b := NewBuilder(bp, 3, Options{})
	if err := b.AppendBlock(la.NewDense(2, 4)); err == nil {
		t.Fatal("want error for wrong cols")
	}
	if _, err := b.Finish(); err == nil {
		t.Fatal("want error for empty Finish")
	}
	if _, err := b.Finish(); err == nil {
		t.Fatal("want error for double Finish")
	}
	if err := b.AppendBlock(la.NewDense(2, 3)); err == nil {
		t.Fatal("want error for AppendBlock after Finish")
	}
}

// TestCompressionPaysOnPagedBytes confirms the page footprint of quantized
// data is much smaller than dense — the byte savings that let a fixed pool
// budget hold more rows.
func TestCompressionPaysOnPagedBytes(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	rows := 8000
	src := la.NewDense(rows, 6)
	for i := 0; i < rows; i++ {
		for j := 0; j < 6; j++ {
			src.Set(i, j, float64(r.Intn(3)))
		}
	}
	bp := newPool(t, 1<<24)
	m, err := FromDense(bp, src, Options{BlockRows: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if ratio := float64(m.DenseBytes()) / float64(m.PagedBytes()); ratio < 2 {
		t.Fatalf("compression ratio %.2f < 2 on 3-value data", ratio)
	}
}

// A length mismatch is an error from the whole-matrix products, not a panic.
func TestMatVecVecMatCheckLengths(t *testing.T) {
	bp := newPool(t, 1<<20)
	m, err := FromDense(bp, la.NewDense(10, 3), Options{BlockRows: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.MatVec(make([]float64, 9), make([]float64, 3)); err == nil {
		t.Fatal("MatVec with a short dst: want an error")
	}
	if err := m.VecMat(make([]float64, 3), make([]float64, 11)); err == nil {
		t.Fatal("VecMat with a long x: want an error")
	}
}

// A zero BlockRows sizes blocks from the pool's budget, one dense block
// being 1/poolBlocks of it; prefetch stays on only while two of the largest
// blocks fit the budget.
func TestBlockRowsFromBudget(t *testing.T) {
	src := testMatrix(rand.New(rand.NewSource(62)), 1000, 5)
	for _, c := range []struct {
		budget       int64
		wantRows     int
		wantPrefetch bool
	}{
		{64 * 1024, 64 * 1024 / 40 / poolBlocks, true},
		{8 * 1024, 8 * 1024 / 40 / poolBlocks, true},
		{48, 1, false}, // one 40-byte row per block, and two do not fit
	} {
		bp := newPool(t, c.budget)
		m, err := FromDense(bp, src, Options{NoCompress: true, Prefetch: true})
		if err != nil {
			t.Fatal(err)
		}
		if want := (1000 + c.wantRows - 1) / c.wantRows; m.NumBlocks() != want {
			t.Fatalf("budget %d: %d blocks, want %d of %d rows", c.budget, m.NumBlocks(), want, c.wantRows)
		}
		if m.prefetch != c.wantPrefetch {
			t.Fatalf("budget %d: prefetch = %v, want %v", c.budget, m.prefetch, c.wantPrefetch)
		}
		back, err := m.ToDense()
		if err != nil {
			t.Fatal(err)
		}
		if !back.Equal(src, 0) {
			t.Fatalf("budget %d: round trip differs", c.budget)
		}
		if err := m.Drop(); err != nil {
			t.Fatal(err)
		}
	}
}
