package factorized

// Test conveniences over the shipped kernels: allocating forms and the tree's
// layout, which no caller outside the tests needs.

// MatVec computes the joined X·w into a fresh vector.
func (t *JoinTree) MatVec(w []float64) []float64 {
	return t.MatVecInto(make([]float64, t.nodes[0].rows), w)
}

// NumNodes returns the number of relations in the tree.
func (t *JoinTree) NumNodes() int { return len(t.nodes) }

// Offset returns the column offset of node v's feature block in the joined
// view.
func (t *JoinTree) Offset(v int) int { return t.nodes[v].offset }
