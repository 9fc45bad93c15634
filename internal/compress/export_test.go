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

// analyzeColumn is analyzeInto on a fresh table and code array: the exact
// analysis of one column, as the planner runs it on every column a row
// sample does not settle.
func analyzeColumn(col []float64) (colStats, colCode) {
	var idx valueIndex
	cc := colCode{codes: make([]int32, len(col))}
	return analyzeInto(col, &idx, &cc), cc
}
