package ooc

import (
	"fmt"
	"sync"

	"dmml/internal/compress"
	"dmml/internal/la"
	"dmml/internal/opt"
	"dmml/internal/storage"
)

// pinnedBlock is one pinned row block as a stream delivers it: a
// compressedBlock or a rawBlock. It is valid only while its page stays
// pinned (i.e. inside the ForEachBlock callback that delivered it).
type pinnedBlock interface {
	opt.RowBlock
	index() int
	// gramAccum adds Xbᵀ·Xb into out (cols×cols, row-major) — the block
	// contribution to the full Gram matrix.
	gramAccum(out *la.Dense)
	// colSumsAccum adds the block's column sums into out.
	colSumsAccum(out []float64)
}

// blockHead is what every pinned block knows besides its data.
type blockHead struct {
	m    *Matrix
	meta *blockMeta
	idx  int
}

// StartRow implements opt.RowBlock.
func (b *blockHead) StartRow() int { return b.meta.startRow }

// Rows implements opt.RowBlock.
func (b *blockHead) Rows() int { return b.meta.rows }

// Cols implements opt.RowBlock.
func (b *blockHead) Cols() int { return b.m.cols }

func (b *blockHead) index() int { return b.idx }

// compressedBlock is a CLA page decoded into a view of the pinned page. Its
// kernels operate over the compressed form, and it carries the one-pass
// block step, LossGradAccum.
type compressedBlock struct {
	blockHead
	cm *compress.Matrix
}

// MatVecInto implements opt.RowBlock.
func (b *compressedBlock) MatVecInto(dst, v []float64) []float64 { return b.cm.MatVecInto(dst, v) }

// VecMatAccum implements opt.RowBlock. It dispatches through the Group
// interface, so the noalloc proof lives on the concrete group methods in
// internal/compress rather than on this wrapper.
func (b *compressedBlock) VecMatAccum(out, x []float64) { b.cm.VecMatAccum(out, x) }

// LossGradAccum is the one-pass block step opt's streamed solvers probe
// for: margins, loss tile and gradient over the block in one reduction.
func (b *compressedBlock) LossGradAccum(grad, margins, derivs, w, y []float64, tile func(derivs, margins, y []float64) float64) float64 {
	return b.cm.LossGradAccum(grad, margins, derivs, w, y, tile)
}

func (b *compressedBlock) gramAccum(out *la.Dense) { b.cm.GramAccum(out) }

func (b *compressedBlock) colSumsAccum(out []float64) { b.cm.ColSumsAccum(out) }

// rawBlock is a raw row-major page viewed as a dense block, zero-copy. It
// runs the plain row-major kernels and has no one-pass step: opt makes its
// three passes over it.
type rawBlock struct {
	blockHead
	dn *la.Dense
}

// MatVecInto implements opt.RowBlock.
func (b *rawBlock) MatVecInto(dst, v []float64) []float64 { return la.MatVecInto(dst, b.dn, v) }

// VecMatAccum implements opt.RowBlock.
func (b *rawBlock) VecMatAccum(out, x []float64) {
	cols := b.m.cols
	raw := b.dn.RawData()
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		row := raw[i*cols : (i+1)*cols]
		la.Axpy(xi, row, out)
	}
}

func (b *rawBlock) gramAccum(out *la.Dense) {
	cols := b.m.cols
	raw := b.dn.RawData()
	od := out.RawData()
	for i := 0; i < b.meta.rows; i++ {
		row := raw[i*cols : (i+1)*cols]
		for j, vj := range row {
			if vj == 0 {
				continue
			}
			la.Axpy(vj, row, od[j*cols:(j+1)*cols])
		}
	}
}

func (b *rawBlock) colSumsAccum(out []float64) {
	raw := b.dn.RawData()
	for r0 := 0; r0 < len(raw); r0 += b.m.cols {
		la.Axpy(1, raw[r0:r0+b.m.cols], out)
	}
}

// pinBlock pins block idx's page and decodes it into a usable view.
func (m *Matrix) pinBlock(idx int) (pinnedBlock, error) {
	meta := &m.blocks[idx]
	id := storage.PageID{Owner: m.owner, Index: idx}
	page, err := m.bp.Pin(id, meta.words)
	if err != nil {
		return nil, fmt.Errorf("ooc: pin block %d: %w", idx, err)
	}
	mBlockPins.Inc()
	head := blockHead{m: m, meta: meta, idx: idx}
	if meta.compressed {
		sw := mDecodeTimer.Start()
		cm, err := compress.DecodePage(page)
		sw.Stop()
		if err == nil && (cm.Rows() != meta.rows || cm.Cols() != m.cols) {
			err = fmt.Errorf("page holds a %dx%d matrix, block is %dx%d", cm.Rows(), cm.Cols(), meta.rows, m.cols)
		}
		if err != nil {
			m.bp.Unpin(id, false)
			return nil, fmt.Errorf("ooc: decode block %d: %w", idx, err)
		}
		return &compressedBlock{head, cm}, nil
	}
	dn, err := la.NewDenseData(meta.rows, m.cols, page)
	if err != nil {
		m.bp.Unpin(id, false)
		return nil, fmt.Errorf("ooc: view block %d: %w", idx, err)
	}
	return &rawBlock{head, dn}, nil
}

func (m *Matrix) unpinBlock(idx int) {
	m.bp.Unpin(storage.PageID{Owner: m.owner, Index: idx}, false)
}

// ForEachBlock implements opt.BlockData. With prefetch enabled a producer
// goroutine pins and decodes block N+1 while the callback computes on block
// N; the unbuffered handoff channel caps the pipeline at two pinned blocks
// (the one in flight plus the one in the callback), so resident memory stays
// bounded no matter how many blocks stream past. Steady state allocates
// nothing beyond the per-block decode views.
func (m *Matrix) ForEachBlock(f func(opt.RowBlock) error) error {
	if !m.prefetch || len(m.blocks) < 2 {
		for i := range m.blocks {
			b, err := m.pinBlock(i)
			if err != nil {
				return err
			}
			err = f(b)
			m.unpinBlock(i)
			if err != nil {
				return err
			}
		}
		return nil
	}
	type fetched struct {
		b   pinnedBlock
		err error
	}
	ch := make(chan fetched) // unbuffered: producer stays ≤1 block ahead
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	// Defers run LIFO: close(done) first to release a blocked producer, then
	// wait for it to exit so no pin outlives this call.
	defer wg.Wait()
	defer close(done)
	go func() {
		defer wg.Done()
		defer close(ch)
		for i := range m.blocks {
			b, err := m.pinBlock(i)
			select {
			case ch <- fetched{b, err}:
			case <-done:
				// Consumer bailed; release the orphaned pin and stop.
				if err == nil {
					m.unpinBlock(i)
				}
				return
			}
		}
	}()
	for range m.blocks {
		var fe fetched
		var ok bool
		// A block already parked in the channel means the producer finished
		// ahead of the compute — a prefetch hit. Blocking on the receive
		// means compute outran I/O+decode for this block.
		select {
		case fe, ok = <-ch:
			if ok {
				mPrefetchHits.Inc()
			}
		default:
			fe, ok = <-ch
			if ok {
				mPrefetchMisses.Inc()
			}
		}
		if !ok {
			return fmt.Errorf("ooc: block stream ended early")
		}
		if fe.err != nil {
			return fe.err
		}
		err := f(fe.b)
		m.unpinBlock(fe.b.index())
		if err != nil {
			return err
		}
	}
	updatePrefetchHitRate()
	return nil
}

// MatVec computes X·v into dst (length Rows) by streaming blocks; a failed
// block read is the error.
func (m *Matrix) MatVec(dst, v []float64) error {
	if len(dst) != m.rows || len(v) != m.cols {
		return fmt.Errorf("ooc: MatVec dst %d, v %d for %dx%d", len(dst), len(v), m.rows, m.cols)
	}
	return m.ForEachBlock(func(b opt.RowBlock) error {
		b.MatVecInto(dst[b.StartRow():b.StartRow()+b.Rows()], v)
		return nil
	})
}

// VecMat computes xᵀ·X into dst (length Cols) by streaming blocks; a failed
// block read is the error.
func (m *Matrix) VecMat(dst, x []float64) error {
	if len(dst) != m.cols || len(x) != m.rows {
		return fmt.Errorf("ooc: VecMat dst %d, x %d for %dx%d", len(dst), len(x), m.rows, m.cols)
	}
	clear(dst)
	return m.ForEachBlock(func(b opt.RowBlock) error {
		b.VecMatAccum(dst, x[b.StartRow():b.StartRow()+b.Rows()])
		return nil
	})
}

// Gram computes XᵀX by streaming blocks — the physical pattern the DML
// evaluator rewrites t(X)%*%X into, now available out-of-core.
func (m *Matrix) Gram() (*la.Dense, error) {
	out := la.NewDense(m.cols, m.cols)
	err := m.ForEachBlock(func(b opt.RowBlock) error {
		b.(pinnedBlock).gramAccum(out)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ColSums accumulates per-column sums across all blocks.
func (m *Matrix) ColSums() ([]float64, error) {
	out := make([]float64, m.cols)
	err := m.ForEachBlock(func(b opt.RowBlock) error {
		b.(pinnedBlock).colSumsAccum(out)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
