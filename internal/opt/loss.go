// Package opt provides gradient-based optimization for generalized linear
// models: pluggable margin-based losses, full-batch gradient descent,
// stochastic gradient descent with a Bismarck-style unified aggregate (UDA)
// architecture, parallel SGD (shared-model and model-averaging), and
// block-streamed SGD over out-of-core sources.
//
// Conventions: a model is a weight vector w; the margin for example x is
// m = w·x; classification labels are −1/+1; regression targets are real.
package opt

import (
	"fmt"

	"dmml/internal/la"
	"dmml/internal/pool"
)

// Loss is a margin-based loss: given the margin m = w·x and the label y it
// yields the loss value and its derivative with respect to the margin.
// Row-at-a-time methods (SGD, MeanLoss) call Value and Deriv; the bulk
// solvers call Batch once per margin vector.
type Loss interface {
	// Value returns L(m, y).
	Value(m, y float64) float64
	// Deriv returns ∂L/∂m.
	Deriv(m, y float64) float64
	// Batch writes Deriv(margins[i], y[i]) into derivs[i] and returns
	// Σ Value(margins[i], y[i]); all three slices have one length. cols is
	// the width of the data the margins came from: the pass is a step over
	// rows of cols scalar operations, so it sums over la.VecMatInto's row
	// chunks on that data and shares its gate. Each chunk is added in row
	// order and the chunk sums in chunk order, so for given inputs sum and
	// derivs are bit-identical across runs and across GOMAXPROCS. Batches
	// under the pool's gate run on the calling goroutine and allocate
	// nothing.
	Batch(derivs, margins, y []float64, cols int) float64
	// tile returns the loss's serial kernel: Batch over one chunk, on the
	// calling goroutine. A one-pass block step (blockStep) runs it over
	// each of its row ranges.
	tile() func(derivs, margins, y []float64) float64
}

// batchLoss is the one loss pass under every bulk solver: tile is a loss's
// serial kernel, run chunk by chunk over pool.Grain's grid for rows of cols
// scalar operations, on the pool's workers over the gate and on the calling
// goroutine under it. A warm call allocates nothing.
func batchLoss(derivs, margins, y []float64, cols int, tile func(derivs, margins, y []float64) float64) float64 {
	n := len(margins)
	if len(derivs) != n || len(y) != n {
		panic(fmt.Sprintf("opt: loss batch of %d margins, %d labels, %d derivs", n, len(y), len(derivs)))
	}
	sum := pool.GetF64Zeroed(1)
	if pool.Parallel(n * cols) {
		c := lossCalls.Get()
		c.derivs, c.margins, c.y, c.tile = derivs, margins, y, tile
		pool.Reduce(sum, n, cols, c.run)
		c.put()
	} else {
		// The serial branch keeps its closure off the heap.
		pool.ReduceSerial(sum, n, cols, func(acc []float64, lo, hi int) {
			acc[0] += tile(derivs[lo:hi], margins[lo:hi], y[lo:hi])
		})
	}
	s := sum[0]
	pool.PutF64(sum)
	return s
}

// lossCall is one batchLoss call's state on the pool, recycled with its run
// method bound once, so the dispatch allocates no closure.
type lossCall struct {
	derivs, margins, y []float64
	tile               func(derivs, margins, y []float64) float64
	run                func(acc []float64, lo, hi int)
}

var lossCalls = pool.Freelist[lossCall]{New: func() *lossCall {
	c := &lossCall{}
	c.run = c.rows
	return c
}}

// rows adds the tile's loss over rows [lo,hi) into acc[0].
func (c *lossCall) rows(acc []float64, lo, hi int) {
	acc[0] += c.tile(c.derivs[lo:hi], c.margins[lo:hi], c.y[lo:hi])
}

// put drops the call's references and recycles it.
func (c *lossCall) put() {
	c.derivs, c.margins, c.y, c.tile = nil, nil, nil, nil
	lossCalls.Put(c)
}

// Squared is the squared-error loss ½(m−y)², for regression.
type Squared struct{}

// Value implements Loss.
//
//dmml:noalloc
func (Squared) Value(m, y float64) float64 { d := m - y; return 0.5 * d * d }

// Deriv implements Loss.
//
//dmml:noalloc
func (Squared) Deriv(m, y float64) float64 { return m - y }

// Batch implements Loss.
func (Squared) Batch(derivs, margins, y []float64, cols int) float64 {
	return batchLoss(derivs, margins, y, cols, squaredTile)
}

func (Squared) tile() func(derivs, margins, y []float64) float64 { return squaredTile }

//dmml:noalloc
func squaredTile(derivs, margins, y []float64) float64 {
	derivs, y = derivs[:len(margins)], y[:len(margins)]
	total := 0.0
	for i, m := range margins {
		d := m - y[i]
		derivs[i] = d
		total += 0.5 * d * d
	}
	return total
}

// Logistic is the logistic loss log(1+exp(−y·m)), labels −1/+1. All three
// methods evaluate la's single-exponential form (la/logistic.go), so the
// scalar pair and the batch agree to the bit.
type Logistic struct{}

// Value implements Loss.
//
//dmml:noalloc
func (Logistic) Value(m, y float64) float64 { return la.LogisticValue(m, y) }

// Deriv implements Loss.
//
//dmml:noalloc
func (Logistic) Deriv(m, y float64) float64 { return la.LogisticDeriv(m, y) }

// Batch implements Loss.
func (Logistic) Batch(derivs, margins, y []float64, cols int) float64 {
	return batchLoss(derivs, margins, y, cols, la.LogisticLossInto)
}

func (Logistic) tile() func(derivs, margins, y []float64) float64 { return la.LogisticLossInto }

// Sigmoid is the logistic link 1/(1+e^{−m}).
//
//dmml:noalloc
func Sigmoid(m float64) float64 { return la.Sigmoid(m) }
