package la

import (
	"errors"
	"fmt"
	"math"

	"dmml/internal/pool"
)

// ErrNotPositiveDefinite is returned by SolveSPD when the input matrix is
// not (numerically) symmetric positive definite.
var ErrNotPositiveDefinite = errors.New("la: matrix is not positive definite")

// ErrSingular is returned by solvers when the system is singular to working
// precision.
var ErrSingular = errors.New("la: matrix is singular")

// cholesky writes into l the lower-triangular factor L with A = L·Lᵀ of a
// symmetric positive-definite n×n matrix A. l is n×n and all zero; only its
// lower triangle is written. A is not modified.
//
//dmml:noalloc
func cholesky(l, a *Dense) error {
	n := a.rows
	for j := 0; j < n; j++ {
		d := a.data[j*n+j]
		lrowj := l.data[j*n : (j+1)*n]
		for k := 0; k < j; k++ {
			d -= lrowj[k] * lrowj[k]
		}
		if d <= 0 || math.IsNaN(d) {
			return ErrNotPositiveDefinite
		}
		ljj := math.Sqrt(d)
		lrowj[j] = ljj
		inv := 1 / ljj
		for i := j + 1; i < n; i++ {
			s := a.data[i*n+j]
			lrowi := l.data[i*n : (i+1)*n]
			for k := 0; k < j; k++ {
				s -= lrowi[k] * lrowj[k]
			}
			lrowi[j] = s * inv
		}
	}
	return nil
}

// SolveCholesky solves A·x = b given the Cholesky factor L of A, via forward
// then backward substitution.
func SolveCholesky(l *Dense, b []float64) ([]float64, error) {
	n := l.rows
	if len(b) != n {
		return nil, fmt.Errorf("la: SolveCholesky rhs length %d, want %d", len(b), n)
	}
	// Forward: L·y = b
	y := pool.GetF64(n)
	defer pool.PutF64(y)
	for i := 0; i < n; i++ {
		s := b[i]
		row := l.RowView(i)
		for k := 0; k < i; k++ {
			s -= row[k] * y[k]
		}
		if row[i] == 0 {
			return nil, ErrSingular
		}
		y[i] = s / row[i]
	}
	// Backward: Lᵀ·x = y
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= l.At(k, i) * x[k]
		}
		x[i] = s / l.At(i, i)
	}
	return x, nil
}

// SolveSPD solves A·x = b for symmetric positive-definite A, through the
// Cholesky factor L of A = L·Lᵀ (SolveCholesky). The factor lives in pooled
// scratch for the call. It returns ErrNotPositiveDefinite when A is not
// (numerically) positive definite. A is not modified.
func SolveSPD(a *Dense, b []float64) ([]float64, error) {
	if a.rows != a.cols {
		return nil, fmt.Errorf("la: SolveSPD of non-square %dx%d", a.rows, a.cols)
	}
	l := factorScratch(a.rows)
	defer pool.PutF64(l.data)
	if err := cholesky(&l, a); err != nil {
		return nil, err
	}
	return SolveCholesky(&l, b)
}

// factorScratch returns an all-zero n×n matrix over pooled scratch: the
// caller owns its data and releases it with pool.PutF64.
//
//dmml:owns-scratch
func factorScratch(n int) Dense {
	return Dense{rows: n, cols: n, data: pool.GetF64Zeroed(n * n)}
}

// QR holds a Householder QR decomposition of an m×n matrix with m ≥ n.
// R is upper triangular n×n; Q is represented implicitly by the Householder
// vectors and can be applied to vectors.
type QR struct {
	qr   *Dense    // packed factors: R in upper triangle, v's below
	tau  []float64 // Householder coefficients
	m, n int
}

// QRDecompose computes the Householder QR factorization of a (m ≥ n required).
func QRDecompose(a *Dense) (*QR, error) {
	m, n := a.rows, a.cols
	if m < n {
		return nil, fmt.Errorf("la: QRDecompose requires rows >= cols, got %dx%d", m, n)
	}
	qr := a.Clone()
	tau := make([]float64, n)
	for k := 0; k < n; k++ {
		// Householder reflector for column k below the diagonal:
		// H = I − beta·u·uᵀ with u normalized so u[k] = 1; u[k+1:] is stored
		// in the subdiagonal of column k and beta in tau[k].
		var normSq float64
		for i := k; i < m; i++ {
			v := qr.At(i, k)
			normSq += v * v
		}
		norm := math.Sqrt(normSq)
		if norm == 0 {
			tau[k] = 0
			continue
		}
		x0 := qr.At(k, k)
		alpha := norm
		if x0 > 0 {
			alpha = -norm // avoid cancellation in v0 = x0 − alpha
		}
		v0 := x0 - alpha
		vTv := 2 * (normSq - alpha*x0)
		beta := 2 * v0 * v0 / vTv
		tau[k] = beta
		invV0 := 1 / v0
		for i := k + 1; i < m; i++ {
			qr.Set(i, k, qr.At(i, k)*invV0)
		}
		qr.Set(k, k, alpha)
		// Apply H to the remaining columns.
		for j := k + 1; j < n; j++ {
			s := qr.At(k, j)
			for i := k + 1; i < m; i++ {
				s += qr.At(i, k) * qr.At(i, j)
			}
			s *= beta
			qr.Set(k, j, qr.At(k, j)-s)
			for i := k + 1; i < m; i++ {
				qr.Set(i, j, qr.At(i, j)-s*qr.At(i, k))
			}
		}
	}
	return &QR{qr: qr, tau: tau, m: m, n: n}, nil
}

// QtVec applies Qᵀ to a length-m vector, returning the transformed vector.
func (q *QR) QtVec(b []float64) []float64 {
	if len(b) != q.m {
		panic(fmt.Sprintf("la: QtVec length %d, want %d", len(b), q.m))
	}
	y := CloneVec(b)
	for k := 0; k < q.n; k++ {
		if q.tau[k] == 0 {
			continue
		}
		s := y[k]
		for i := k + 1; i < q.m; i++ {
			s += q.qr.At(i, k) * y[i]
		}
		s *= q.tau[k]
		y[k] -= s
		for i := k + 1; i < q.m; i++ {
			y[i] -= s * q.qr.At(i, k)
		}
	}
	return y
}

// Solve finds the least-squares solution x minimizing ‖A·x − b‖₂.
func (q *QR) Solve(b []float64) ([]float64, error) {
	y := q.QtVec(b)
	x := make([]float64, q.n)
	for i := q.n - 1; i >= 0; i-- {
		s := y[i]
		for j := i + 1; j < q.n; j++ {
			s -= q.qr.At(i, j) * x[j]
		}
		d := q.qr.At(i, i)
		if math.Abs(d) < 1e-14 {
			return nil, ErrSingular
		}
		x[i] = s / d
	}
	return x, nil
}

// LstSq computes the least-squares solution of A·x = b via QR.
func LstSq(a *Dense, b []float64) ([]float64, error) {
	qr, err := QRDecompose(a)
	if err != nil {
		return nil, err
	}
	return qr.Solve(b)
}
