// Package la provides the linear-algebra substrate for dmml: dense and
// CSR-sparse matrices, BLAS-like kernels (GEMM, GEMV, syrk), and the
// decompositions (QR, Cholesky) used by the ML and feature-engineering
// layers.
//
// Conventions:
//   - Dense matrices are row-major.
//   - Constructors and converters validate their inputs and return errors.
//   - Computational kernels treat shape mismatches as programmer errors and
//     panic with a descriptive message, mirroring the contract of the Go
//     ecosystem's numeric libraries. Callers that accept untrusted shapes
//     should validate with Dims before invoking kernels.
package la

import (
	"fmt"
	"math"
	"strings"
)

// Dense is a row-major dense matrix of float64 values.
type Dense struct {
	rows, cols int
	data       []float64 // len == rows*cols
}

// NewDense returns a zeroed rows×cols dense matrix.
// It panics if either dimension is non-positive.
func NewDense(rows, cols int) *Dense {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("la: NewDense with non-positive dims %dx%d", rows, cols))
	}
	return &Dense{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// NewDenseData wraps data (row-major, length rows*cols) in a Dense without
// copying. It returns an error if the length does not match the dimensions.
func NewDenseData(rows, cols int, data []float64) (*Dense, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("la: non-positive dims %dx%d", rows, cols)
	}
	if len(data) != rows*cols {
		return nil, fmt.Errorf("la: data length %d does not match %dx%d", len(data), rows, cols)
	}
	return &Dense{rows: rows, cols: cols, data: data}, nil
}

// FromRows builds a Dense from a slice of equal-length rows, copying the data.
func FromRows(rows [][]float64) (*Dense, error) {
	if len(rows) == 0 || len(rows[0]) == 0 {
		return nil, fmt.Errorf("la: FromRows with empty input")
	}
	m := NewDense(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.cols {
			return nil, fmt.Errorf("la: row %d has length %d, want %d", i, len(r), m.cols)
		}
		copy(m.data[i*m.cols:(i+1)*m.cols], r)
	}
	return m, nil
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		m.data[i*n+i] = 1
	}
	return m
}

// Dims returns the number of rows and columns.
func (m *Dense) Dims() (rows, cols int) { return m.rows, m.cols }

// Rows returns the number of rows.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Dense) At(i, j int) float64 {
	m.checkIndex(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns v to the element at row i, column j.
func (m *Dense) Set(i, j int, v float64) {
	m.checkIndex(i, j)
	m.data[i*m.cols+j] = v
}

func (m *Dense) checkIndex(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("la: index (%d,%d) out of range for %dx%d matrix", i, j, m.rows, m.cols))
	}
}

// RawData returns the underlying row-major backing slice. Mutating it mutates
// the matrix.
func (m *Dense) RawData() []float64 { return m.data }

// RowView returns row i as a slice aliasing the matrix storage.
func (m *Dense) RowView(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("la: row %d out of range for %d rows", i, m.rows))
	}
	return m.data[i*m.cols : (i+1)*m.cols]
}

// Col copies column j into a new slice.
func (m *Dense) Col(j int) []float64 {
	if j < 0 || j >= m.cols {
		panic(fmt.Sprintf("la: col %d out of range for %d cols", j, m.cols))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		out[i] = m.data[i*m.cols+j]
	}
	return out
}

// Clone returns a deep copy of the matrix.
func (m *Dense) Clone() *Dense {
	out := NewDense(m.rows, m.cols)
	copy(out.data, m.data)
	return out
}

// T returns the transpose as a newly allocated matrix.
func (m *Dense) T() *Dense {
	out := NewDense(m.cols, m.rows)
	// Blocked transpose for cache friendliness; large matrices split their
	// row-block sweep across the worker pool (blocks write disjoint output).
	const bs = 32
	nBlocks := (m.rows + bs - 1) / bs
	parallelRows(nBlocks, len(m.data), func(b0, b1 int) {
		for ii := b0 * bs; ii < b1*bs && ii < m.rows; ii += bs {
			iMax := min(ii+bs, m.rows)
			for jj := 0; jj < m.cols; jj += bs {
				jMax := min(jj+bs, m.cols)
				for i := ii; i < iMax; i++ {
					for j := jj; j < jMax; j++ {
						out.data[j*m.rows+i] = m.data[i*m.cols+j]
					}
				}
			}
		}
	})
	return out
}

// Slice returns a copy of the sub-matrix [r0,r1)×[c0,c1).
func (m *Dense) Slice(r0, r1, c0, c1 int) *Dense {
	if r0 < 0 || r1 > m.rows || c0 < 0 || c1 > m.cols || r0 >= r1 || c0 >= c1 {
		panic(fmt.Sprintf("la: bad slice [%d:%d, %d:%d] of %dx%d", r0, r1, c0, c1, m.rows, m.cols))
	}
	out := NewDense(r1-r0, c1-c0)
	for i := r0; i < r1; i++ {
		copy(out.RowView(i-r0), m.data[i*m.cols+c0:i*m.cols+c1])
	}
	return out
}

// SelectCols returns a copy of m restricted to the given columns, in order.
func (m *Dense) SelectCols(cols []int) *Dense {
	for _, c := range cols {
		if c < 0 || c >= m.cols {
			panic(fmt.Sprintf("la: SelectCols column %d out of range for %d cols", c, m.cols))
		}
	}
	out := NewDense(m.rows, len(cols))
	for i := 0; i < m.rows; i++ {
		src := m.RowView(i)
		dst := out.RowView(i)
		for k, c := range cols {
			dst[k] = src[c]
		}
	}
	return out
}

// SelectRows returns a copy of m restricted to the given rows, in order.
func (m *Dense) SelectRows(rows []int) *Dense {
	if len(rows) == 0 {
		panic("la: SelectRows with empty row set")
	}
	out := NewDense(len(rows), m.cols)
	for k, r := range rows {
		if r < 0 || r >= m.rows {
			panic(fmt.Sprintf("la: SelectRows row %d out of range for %d rows", r, m.rows))
		}
		copy(out.RowView(k), m.RowView(r))
	}
	return out
}

// Zero sets every element to 0.
func (m *Dense) Zero() {
	for i := range m.data {
		m.data[i] = 0
	}
}

// Scale multiplies every element by s in place and returns m.
func (m *Dense) Scale(s float64) *Dense {
	for i := range m.data {
		m.data[i] *= s
	}
	return m
}

// AddScaled adds s*other to m element-wise in place and returns m.
func (m *Dense) AddScaled(other *Dense, s float64) *Dense {
	m.checkSameShape(other, "AddScaled")
	for i := range m.data {
		m.data[i] += s * other.data[i]
	}
	return m
}

// Sub subtracts other from m element-wise in place and returns m.
func (m *Dense) Sub(other *Dense) *Dense { return m.AddScaled(other, -1) }

// Apply replaces each element x with f(x) in place and returns m.
func (m *Dense) Apply(f func(float64) float64) *Dense {
	for i := range m.data {
		m.data[i] = f(m.data[i])
	}
	return m
}

func (m *Dense) checkSameShape(other *Dense, op string) {
	if m.rows != other.rows || m.cols != other.cols {
		panic(fmt.Sprintf("la: %s shape mismatch %dx%d vs %dx%d", op, m.rows, m.cols, other.rows, other.cols))
	}
}

// Sum returns the sum of all elements.
func (m *Dense) Sum() float64 {
	var s float64
	for _, v := range m.data {
		s += v
	}
	return s
}

// SumSq returns the sum of squared elements (squared Frobenius norm).
func (m *Dense) SumSq() float64 {
	var s float64
	for _, v := range m.data {
		s += v * v
	}
	return s
}

// NNZ returns the number of non-zero elements.
func (m *Dense) NNZ() int {
	n := 0
	for _, v := range m.data {
		if v != 0 {
			n++
		}
	}
	return n
}

// Sparsity returns the fraction of zero elements in [0,1].
func (m *Dense) Sparsity() float64 {
	return 1 - float64(m.NNZ())/float64(len(m.data))
}

// ColSums returns a length-cols vector of per-column sums.
func (m *Dense) ColSums() []float64 {
	out := make([]float64, m.cols)
	for i := 0; i < m.rows; i++ {
		row := m.RowView(i)
		for j, v := range row {
			out[j] += v
		}
	}
	return out
}

// RowSums returns a length-rows vector of per-row sums.
func (m *Dense) RowSums() []float64 {
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		var s float64
		for _, v := range m.RowView(i) {
			s += v
		}
		out[i] = s
	}
	return out
}

// Equal reports whether m and other have identical shape and all elements
// within tol of each other.
func (m *Dense) Equal(other *Dense, tol float64) bool {
	if m.rows != other.rows || m.cols != other.cols {
		return false
	}
	for i, v := range m.data {
		if math.Abs(v-other.data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders small matrices fully and large ones as a summary.
func (m *Dense) String() string {
	if m.rows*m.cols > 64 {
		return fmt.Sprintf("Dense{%dx%d, nnz=%d}", m.rows, m.cols, m.NNZ())
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Dense{%dx%d\n", m.rows, m.cols)
	for i := 0; i < m.rows; i++ {
		b.WriteString("  [")
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%.4g", m.At(i, j))
		}
		b.WriteString("]\n")
	}
	b.WriteString("}")
	return b.String()
}

// Stack vertically concatenates matrices with equal column counts.
func Stack(ms ...*Dense) (*Dense, error) {
	if len(ms) == 0 {
		return nil, fmt.Errorf("la: Stack of zero matrices")
	}
	cols := ms[0].cols
	rows := 0
	for _, m := range ms {
		if m.cols != cols {
			return nil, fmt.Errorf("la: Stack column mismatch %d vs %d", m.cols, cols)
		}
		rows += m.rows
	}
	out := NewDense(rows, cols)
	at := 0
	for _, m := range ms {
		copy(out.data[at:], m.data)
		at += len(m.data)
	}
	return out, nil
}

// HCat horizontally concatenates matrices with equal row counts.
func HCat(ms ...*Dense) (*Dense, error) {
	if len(ms) == 0 {
		return nil, fmt.Errorf("la: HCat of zero matrices")
	}
	rows := ms[0].rows
	cols := 0
	for _, m := range ms {
		if m.rows != rows {
			return nil, fmt.Errorf("la: HCat row mismatch %d vs %d", m.rows, rows)
		}
		cols += m.cols
	}
	out := NewDense(rows, cols)
	for i := 0; i < rows; i++ {
		dst := out.RowView(i)
		at := 0
		for _, m := range ms {
			copy(dst[at:], m.RowView(i))
			at += m.cols
		}
	}
	return out, nil
}
