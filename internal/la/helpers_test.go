package la

import "math"

// Test helpers: QR's explicit R factor and the ∞-norm, which the tests check
// the solvers with, and the dense→CSR converter the CSR tests build from.

// R returns the upper-triangular factor as a dense n×n matrix.
func (q *QR) R() *Dense {
	r := NewDense(q.n, q.n)
	for i := 0; i < q.n; i++ {
		for j := i; j < q.n; j++ {
			r.Set(i, j, q.qr.At(i, j))
		}
	}
	return r
}

// NormInf returns the maximum absolute value of x.
func NormInf(x []float64) float64 {
	var mx float64
	for _, v := range x {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// CSRFromDense converts a dense matrix into CSR, dropping zeros.
func CSRFromDense(m *Dense) *CSR {
	rowPtr := make([]int, m.rows+1)
	nnz := m.NNZ()
	colIdx := make([]int, 0, nnz)
	vals := make([]float64, 0, nnz)
	for i := 0; i < m.rows; i++ {
		row := m.RowView(i)
		for j, v := range row {
			if v != 0 {
				colIdx = append(colIdx, j)
				vals = append(vals, v)
			}
		}
		rowPtr[i+1] = len(colIdx)
	}
	return &CSR{rows: m.rows, cols: m.cols, rowPtr: rowPtr, colIdx: colIdx, vals: vals}
}
