package ooc

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dmml/internal/compress"
	"dmml/internal/la"
	"dmml/internal/storage"
)

// serialPages is the reference the pipelined builder must reproduce: each
// blockRows-row block of src planned, encoded and laid out on the calling
// goroutine, as a one-goroutine builder would — co-coded CLA when it reaches
// minRatio (and opts allow it), UC groups otherwise.
func serialPages(t *testing.T, src *la.Dense, blockRows int, opts Options) (pages [][]float64, metas []blockMeta) {
	t.Helper()
	rows, cols := src.Dims()
	for r0 := 0; r0 < rows; r0 += blockRows {
		nb := min(blockRows, rows-r0)
		d, err := la.NewDenseData(nb, cols, src.RawData()[r0*cols:(r0+nb)*cols])
		if err != nil {
			t.Fatal(err)
		}
		meta := blockMeta{startRow: r0, rows: nb}
		var cm *compress.Matrix
		if !opts.NoCompress {
			c := compress.Compress(d, compress.Options{CoCode: true})
			if float64(nb*cols)/float64(compress.EncodedLen(c)) >= minRatio {
				cm, meta.compressed = c, true
			}
		}
		if cm == nil {
			cm = compress.Uncompressed(d)
		}
		meta.words = compress.EncodedLen(cm)
		page := make([]float64, meta.words)
		if err := compress.EncodeInto(page, cm); err != nil {
			t.Fatal(err)
		}
		pages, metas = append(pages, page), append(metas, meta)
	}
	return pages, metas
}

// samePages fails unless m's blocks have the reference's start rows, sizes
// and layouts and its pages hold the reference's words bit for bit.
func samePages(t *testing.T, what string, m *Matrix, pages [][]float64, metas []blockMeta) {
	t.Helper()
	if len(m.blocks) != len(metas) {
		t.Fatalf("%s: %d blocks, serial reference %d", what, len(m.blocks), len(metas))
	}
	for i, meta := range m.blocks {
		if meta != metas[i] {
			t.Fatalf("%s: block %d is %+v, serial reference %+v", what, i, meta, metas[i])
		}
		id := storage.PageID{Owner: m.owner, Index: i}
		page, err := m.bp.Pin(id, meta.words)
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range page {
			if math.Float64bits(v) != math.Float64bits(pages[i][k]) {
				m.bp.Unpin(id, false)
				t.Fatalf("%s: block %d word %d = %x, serial reference %x", what, i, k, math.Float64bits(v), math.Float64bits(pages[i][k]))
			}
		}
		m.bp.Unpin(id, false)
	}
}

// gaussianMatrix has no column a dictionary shrinks: every block of it stays
// under minRatio.
func gaussianMatrix(r *rand.Rand, rows, cols int) *la.Dense {
	m := la.NewDense(rows, cols)
	for i := range m.RawData() {
		m.RawData()[i] = r.NormFloat64()
	}
	return m
}

// TestBuilderPagesMatchSerial: the builder, which pages block k out on its
// own goroutine while its caller produces block k+1, writes exactly the
// pages, start rows and layouts of a serial build — through FromDense, through
// ReadCSV with a short last block, under NoCompress, for blocks under
// minRatio, and for a caller that reuses two buffers and scribbles over
// each as soon as the builder has released it.
func TestBuilderPagesMatchSerial(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	const blockRows = 300 // over the planner's sample threshold
	quantized := testMatrix(r, 1000, 6)
	gaussian := gaussianMatrix(r, 700, 3)
	var csv strings.Builder
	for i := 0; i < quantized.Rows(); i++ {
		row := quantized.RowView(i)
		for j, v := range row {
			if j > 0 {
				csv.WriteByte(',')
			}
			fmt.Fprintf(&csv, "%v", v)
		}
		csv.WriteByte('\n')
	}
	for _, c := range []struct {
		name       string
		src        *la.Dense
		opts       Options
		build      func(*storage.BufferPool, *la.Dense, Options) (*Matrix, error)
		compressed bool // whether any block keeps the compressed layout
	}{
		{"FromDense", quantized, Options{BlockRows: blockRows}, FromDense, true},
		{"FromDense NoCompress", quantized, Options{BlockRows: blockRows, NoCompress: true}, FromDense, false},
		{"FromDense under minRatio", gaussian, Options{BlockRows: blockRows}, FromDense, false},
		{"ReadCSV", quantized, Options{BlockRows: blockRows}, func(bp *storage.BufferPool, _ *la.Dense, opts Options) (*Matrix, error) {
			return ReadCSV(bp, strings.NewReader(csv.String()), opts)
		}, true},
		{"two reused buffers", quantized, Options{BlockRows: blockRows}, scribblingBuild, true},
	} {
		pages, metas := serialPages(t, c.src, blockRows, c.opts)
		m, err := c.build(newPool(t, 1<<16), c.src, c.opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := m.CompressedBlocks() > 0; got != c.compressed {
			t.Fatalf("%s: %d of %d blocks compressed; want some: %v", c.name, m.CompressedBlocks(), m.NumBlocks(), c.compressed)
		}
		samePages(t, c.name, m, pages, metas)
		if err := m.Drop(); err != nil {
			t.Fatal(err)
		}
	}
}

// scribblingBuild feeds src to a builder through two alternating buffers,
// overwriting each with NaNs as soon as the next AppendBlock returns — the
// moment the contract hands it back — and again after Finish.
func scribblingBuild(bp *storage.BufferPool, src *la.Dense, opts Options) (*Matrix, error) {
	rows, cols := src.Dims()
	b := NewBuilder(bp, cols, opts)
	var bufs [2][]float64
	scribble := func(buf []float64) {
		for i := range buf {
			buf[i] = math.NaN()
		}
	}
	for k, r0 := 0, 0; r0 < rows; k, r0 = k+1, r0+opts.BlockRows {
		nb := min(opts.BlockRows, rows-r0)
		buf := append(bufs[k%2][:0], src.RawData()[r0*cols:(r0+nb)*cols]...)
		bufs[k%2] = buf
		d, err := la.NewDenseData(nb, cols, buf)
		if err != nil {
			return nil, err
		}
		if err := b.AppendBlock(d); err != nil {
			return nil, err
		}
		scribble(bufs[(k+1)%2])
	}
	m, err := b.Finish()
	scribble(bufs[0])
	scribble(bufs[1])
	return m, err
}

// goroutinesAfter returns runtime.NumGoroutine once it is at most want,
// polling for up to ten seconds: a goroutine that has sent its result may
// not have returned yet, but a leaked one keeps the count up.
func goroutinesAfter(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 10000 && n > want; i++ {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestBuilderLeavesNoGoroutine: once Finish returns, and once any build has
// failed, the goroutine count is back at its baseline and no page is left
// in the pool — for a failure of the block in flight (a spill write during
// its page-out, returned by the next call), a bad block appended while one
// is in flight, a malformed CSV row, and a failed final flush.
func TestBuilderLeavesNoGoroutine(t *testing.T) {
	src := testMatrix(rand.New(rand.NewSource(72)), 600, 4)
	opts := Options{BlockRows: 60, NoCompress: true}
	// A first build starts the worker pool's goroutines, which stay.
	if _, err := FromDense(newPool(t, 1<<20), src, opts); err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		time.Sleep(time.Millisecond)
		baseline = min(baseline, runtime.NumGoroutine())
	}
	injected := errors.New("disk full")
	failWrite := func(bp *storage.BufferPool, k int64) {
		var n atomic.Int64
		bp.SetFailureHooks(nil, func(storage.PageID) error {
			if n.Add(1) == k {
				return injected
			}
			return nil
		})
	}
	var csv strings.Builder
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&csv, "%d,%d\n", i, -i)
	}
	csv.WriteString("1,oops\n")
	// Three 2048-byte pages fill the small pool, so a fourth block's page-out
	// evicts; the large one never evicts, so every write is Finish's flush.
	const small, large = 6 * 1024, 1 << 20
	for _, c := range []struct {
		name    string
		budget  int64
		wantErr string // "" for a build that succeeds
		run     func(bp *storage.BufferPool) error
	}{
		{"Finish", large, "", func(bp *storage.BufferPool) error {
			m, err := FromDense(bp, src, opts)
			if err == nil {
				err = m.Drop()
			}
			return err
		}},
		{"spill write of a block in flight", small, injected.Error(), func(bp *storage.BufferPool) error {
			failWrite(bp, 1) // the first eviction, made by a later block's page-out
			_, err := FromDense(bp, src, opts)
			return err
		}},
		{"bad block while one is in flight", small, "cols", func(bp *storage.BufferPool) error {
			b := NewBuilder(bp, 4, opts)
			if err := b.AppendBlock(la.NewDense(60, 4)); err != nil {
				return err
			}
			return b.AppendBlock(la.NewDense(60, 5))
		}},
		{"malformed CSV row", small, "oops", func(bp *storage.BufferPool) error {
			_, err := ReadCSV(bp, strings.NewReader(csv.String()), opts)
			return err
		}},
		{"final flush", large, injected.Error(), func(bp *storage.BufferPool) error {
			failWrite(bp, 1)
			_, err := FromDense(bp, src, opts)
			return err
		}},
	} {
		bp := newPool(t, c.budget)
		err := c.run(bp)
		if c.wantErr == "" && err != nil || c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)) {
			t.Fatalf("%s: err = %v, want %q", c.name, err, c.wantErr)
		}
		if n := goroutinesAfter(baseline); n > baseline {
			t.Fatalf("%s: %d goroutines after the build, baseline %d", c.name, n, baseline)
		}
		if got := bp.ResidentBytes(); got != 0 {
			t.Fatalf("%s: %d resident bytes left", c.name, got)
		}
	}
}
