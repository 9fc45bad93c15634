package compress

import "dmml/internal/la"

// Allocating conveniences over the shipped Into/Accum kernels, for the tests
// and the example.

// VecMat returns xᵀ·X over the compressed representation.
func (c *Matrix) VecMat(x []float64) []float64 {
	return c.VecMatInto(make([]float64, c.cols), x)
}

// ColSums returns per-column sums.
func (c *Matrix) ColSums() []float64 {
	out := make([]float64, c.cols)
	c.ColSumsAccum(out)
	return out
}

// Sum returns the sum of all elements.
func (c *Matrix) Sum() float64 { return la.SumVec(c.ColSums()) }
