package la

import (
	"fmt"
	"sort"
)

// CSR is a compressed sparse row matrix. Column indices within each row are
// strictly increasing and stored values may include explicit zeros only if
// inserted deliberately (the constructors drop them).
type CSR struct {
	rows, cols int
	rowPtr     []int // len rows+1
	colIdx     []int // len nnz
	vals       []float64
}

// Coord is a single (row, col, value) entry used when building sparse
// matrices from triplets.
type Coord struct {
	Row, Col int
	Val      float64
}

// FromCoords builds a CSR matrix from unordered triplets. Duplicate (row,col)
// entries are summed; resulting zeros are kept out of the structure.
func FromCoords(rows, cols int, entries []Coord) (*CSR, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("la: FromCoords non-positive dims %dx%d", rows, cols)
	}
	for _, e := range entries {
		if e.Row < 0 || e.Row >= rows || e.Col < 0 || e.Col >= cols {
			return nil, fmt.Errorf("la: FromCoords entry (%d,%d) out of range for %dx%d", e.Row, e.Col, rows, cols)
		}
	}
	sorted := make([]Coord, len(entries))
	copy(sorted, entries)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Row != sorted[j].Row {
			return sorted[i].Row < sorted[j].Row
		}
		return sorted[i].Col < sorted[j].Col
	})
	rowPtr := make([]int, rows+1)
	colIdx := make([]int, 0, len(sorted))
	vals := make([]float64, 0, len(sorted))
	for i := 0; i < len(sorted); {
		j := i
		v := 0.0
		for ; j < len(sorted) && sorted[j].Row == sorted[i].Row && sorted[j].Col == sorted[i].Col; j++ {
			v += sorted[j].Val
		}
		if v != 0 {
			colIdx = append(colIdx, sorted[i].Col)
			vals = append(vals, v)
			rowPtr[sorted[i].Row+1]++
		}
		i = j
	}
	for i := 0; i < rows; i++ {
		rowPtr[i+1] += rowPtr[i]
	}
	return &CSR{rows: rows, cols: cols, rowPtr: rowPtr, colIdx: colIdx, vals: vals}, nil
}

// ToDense materializes the CSR matrix densely.
func (s *CSR) ToDense() *Dense {
	out := NewDense(s.rows, s.cols)
	for i := 0; i < s.rows; i++ {
		row := out.RowView(i)
		for p := s.rowPtr[i]; p < s.rowPtr[i+1]; p++ {
			row[s.colIdx[p]] = s.vals[p]
		}
	}
	return out
}

// Rows returns the number of rows.
func (s *CSR) Rows() int { return s.rows }

// Cols returns the number of columns.
func (s *CSR) Cols() int { return s.cols }

// NNZ returns the number of stored non-zeros.
func (s *CSR) NNZ() int { return len(s.vals) }

// MatVec returns s × x.
func (s *CSR) MatVec(x []float64) []float64 {
	return s.MatVecInto(make([]float64, s.rows), x)
}

// MatVecInto computes s × x into dst (overwriting it) and returns dst. Rows
// are scheduled dynamically on the worker pool: sparse row skew (a few dense
// rows among many near-empty ones) rebalances instead of serializing on the
// chunk that drew the dense rows.
func (s *CSR) MatVecInto(dst, x []float64) []float64 {
	if s.cols != len(x) {
		panic(fmt.Sprintf("la: CSR MatVec %dx%d × len %d", s.rows, s.cols, len(x)))
	}
	if len(dst) != s.rows {
		panic(fmt.Sprintf("la: CSR MatVecInto dst len %d for %d rows", len(dst), s.rows))
	}
	parallelRows(s.rows, len(s.vals), func(r0, r1 int) {
		for i := r0; i < r1; i++ {
			var acc float64
			for p := s.rowPtr[i]; p < s.rowPtr[i+1]; p++ {
				acc += s.vals[p] * x[s.colIdx[p]]
			}
			dst[i] = acc
		}
	})
	return dst
}

// VecMatInto computes xᵀ × s into dst (overwriting it) and returns dst.
func (s *CSR) VecMatInto(dst, x []float64) []float64 {
	if s.rows != len(x) {
		panic(fmt.Sprintf("la: CSR VecMat len %d × %dx%d", len(x), s.rows, s.cols))
	}
	if len(dst) != s.cols {
		panic(fmt.Sprintf("la: CSR VecMatInto dst len %d for %d cols", len(dst), s.cols))
	}
	for j := range dst {
		dst[j] = 0
	}
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		for p := s.rowPtr[i]; p < s.rowPtr[i+1]; p++ {
			dst[s.colIdx[p]] += xi * s.vals[p]
		}
	}
	return dst
}

// String summarizes the matrix.
func (s *CSR) String() string {
	return fmt.Sprintf("CSR{%dx%d, nnz=%d}", s.rows, s.cols, s.NNZ())
}
