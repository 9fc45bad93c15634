package opt

import (
	"fmt"

	"dmml/internal/la"
	"dmml/internal/pool"
)

// RowBlock is one resident row-block of a larger-than-memory matrix. Blocks
// are only valid inside the ForEachBlock callback that delivered them — the
// backing page may be unpinned (and evicted) as soon as the callback returns.
type RowBlock interface {
	// StartRow is the block's first row index in the full matrix.
	StartRow() int
	// Rows is the number of rows in this block.
	Rows() int
	// Cols is the number of columns (same for every block).
	Cols() int
	// MatVecInto computes Xb·v into dst (length Rows, block-local) and
	// returns dst.
	MatVecInto(dst, v []float64) []float64
	// VecMatAccum adds xᵀ·Xb into out (length Cols); x is block-local with
	// length Rows.
	VecMatAccum(out, x []float64)
}

// BlockData is the fallible streamed contract: sources whose rows pass
// through memory block-by-block (e.g. ooc.Matrix), where delivering a block
// can fail (a spill read). The bulk solvers evaluate a BlockData in a single
// pass that touches each block exactly once per iteration, so the source can
// bound resident memory and prefetch ahead, and a failed block surfaces as
// an error.
type BlockData interface {
	Data
	// NumBlocks returns the number of row blocks.
	NumBlocks() int
	// ForEachBlock invokes f for every block in row order. It stops on the
	// first error and returns it.
	ForEachBlock(f func(b RowBlock) error) error
}

// lossGradBlock is the optional one-pass capability of a RowBlock: margins,
// the loss tile and the gradient accumulation over the block's rows in one
// pass (see (*compress.Matrix).LossGradAccum, which every out-of-core block
// carries). tile is a loss's serial kernel; the
// method writes margins and derivs, adds Xbᵀ·derivs into grad and returns
// the block's loss sum.
type lossGradBlock interface {
	LossGradAccum(grad, margins, derivs, w, y []float64, tile func(derivs, margins, y []float64) float64) float64
}

// blockStep is one block's share of a gradient evaluation, the one block
// step under both streamed solvers: it writes the block's rows of margins
// and derivs, adds the block's gradient contribution into grad and returns
// the block's loss sum. A block with the one-pass capability — every ooc
// block, compressed or not — runs it; every other block (one from outside
// the engine, such as a test's or a benchmark's decorator) makes the three
// passes MatVecInto, Loss.Batch and VecMatAccum, which are also the
// reference the one-pass step is tested against. The probe is a type
// assertion and allocates nothing.
func blockStep(b RowBlock, loss Loss, grad, w, y, margins, derivs []float64) float64 {
	r0, nb := b.StartRow(), b.Rows()
	mb, db, yb := margins[r0:r0+nb], derivs[r0:r0+nb], y[r0:r0+nb]
	if fb, ok := b.(lossGradBlock); ok {
		return fb.LossGradAccum(grad, mb, db, w, yb, loss.tile())
	}
	b.MatVecInto(mb, w)
	total := loss.Batch(db, mb, yb, b.Cols())
	b.VecMatAccum(grad, db)
	return total
}

// lossAndGradientStream is the BlockData evaluation of lossAndGradientInto:
// one pass over the blocks, each a blockStep. A single pass suffices
// because the loss derivative at row i depends only on that row's margin —
// the block's contribution to the gradient is complete the moment its
// margins are.
func lossAndGradientStream(data BlockData, y, w []float64, loss Loss, l2 float64, margins, derivs, grad []float64) (float64, error) {
	n := data.Rows()
	for j := range grad {
		grad[j] = 0
	}
	total := 0.0
	err := data.ForEachBlock(func(b RowBlock) error {
		total += blockStep(b, loss, grad, w, y, margins, derivs)
		return nil
	})
	if err != nil {
		return 0, fmt.Errorf("opt: block stream failed: %w", err)
	}
	invN := 1 / float64(n)
	for j := range grad {
		grad[j] = grad[j]*invN + l2*w[j]
	}
	return total*invN + 0.5*l2*la.Dot(w, w), nil
}

// StreamConfig configures block-streaming SGD.
type StreamConfig struct {
	Step   float64 // initial step size (required > 0)
	Decay  float64 // per-epoch multiplicative step decay (0 = none)
	L2     float64 // L2 regularization strength
	Epochs int     // number of passes over the data (required > 0)
}

// StreamingSGD fits w by block-wise minibatch gradient descent: each resident
// block is one minibatch, so a full epoch is one sequential pass over the
// block stream — the access pattern the out-of-core prefetcher is built for.
// Returns the fitted weights and the mean loss observed per epoch (computed
// from the margins of the same pass, so it trails the final weights by one
// update per block).
func StreamingSGD(data BlockData, y []float64, loss Loss, cfg StreamConfig) (*GDResult, error) {
	if cfg.Step <= 0 {
		return nil, fmt.Errorf("opt: streaming SGD step must be > 0, got %v", cfg.Step)
	}
	if cfg.Epochs <= 0 {
		return nil, fmt.Errorf("opt: streaming SGD epochs must be > 0, got %d", cfg.Epochs)
	}
	if data.Rows() != len(y) {
		return nil, fmt.Errorf("opt: %d labels for %d rows", len(y), data.Rows())
	}
	d := data.Cols()
	w := pool.GetF64Zeroed(d)
	defer pool.PutF64(w)
	gradB := pool.GetF64(d)
	defer pool.PutF64(gradB)
	// Full-length margin/derivative scratch, sliced per block. Labels are
	// already O(rows) in memory, so this does not change the footprint class.
	margins := pool.GetF64(data.Rows())
	defer pool.PutF64(margins)
	derivs := pool.GetF64(data.Rows())
	defer pool.PutF64(derivs)
	res := &GDResult{}
	step := cfg.Step
	for e := 0; e < cfg.Epochs; e++ {
		total := 0.0
		err := data.ForEachBlock(func(b RowBlock) error {
			clear(gradB)
			total += blockStep(b, loss, gradB, w, y, margins, derivs)
			invB := 1 / float64(b.Rows())
			for j := range w {
				w[j] -= step * (gradB[j]*invB + cfg.L2*w[j])
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		res.History = append(res.History, total/float64(data.Rows()))
		res.Iters = e + 1
		if cfg.Decay > 0 {
			step *= cfg.Decay
		}
	}
	res.W = la.CloneVec(w)
	return res, nil
}
