package ooc

import (
	"fmt"
	"sync"

	"dmml/internal/compress"
	"dmml/internal/la"
	"dmml/internal/opt"
	"dmml/internal/storage"
)

// block is one pinned row block as a stream delivers it: its page decoded
// into a compress.Matrix that aliases the page, whose kernels — the one-pass
// block step LossGradAccum among them — run over the column groups without
// decompressing. A block of uncompressed data is the same type with one UC
// group per column. It is valid only while its page stays pinned (i.e.
// inside the ForEachBlock callback that delivered it).
type block struct {
	*compress.Matrix
	startRow, idx int
}

// StartRow implements opt.RowBlock.
func (b *block) StartRow() int { return b.startRow }

// pinBlock pins block idx's page and decodes it into a usable view.
func (m *Matrix) pinBlock(idx int) (*block, error) {
	meta := &m.blocks[idx]
	id := storage.PageID{Owner: m.owner, Index: idx}
	page, err := m.bp.Pin(id, meta.words)
	if err != nil {
		return nil, fmt.Errorf("ooc: pin block %d: %w", idx, err)
	}
	mBlockPins.Inc()
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
	return &block{cm, meta.startRow, idx}, nil
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
		b   *block
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
		m.unpinBlock(fe.b.idx)
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
		b.(*block).GramAccum(out)
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
		b.(*block).ColSumsAccum(out)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
