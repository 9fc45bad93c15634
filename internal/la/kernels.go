package la

import (
	"fmt"

	"dmml/internal/pool"
)

// parallelRows runs fn over row ranges of [0,rows) on the shared worker
// pool with dynamic chunk scheduling: workers claim bounded chunks off an
// atomic index, so skewed per-row cost (zero-heavy GEMM rows, uneven sparse
// rows) rebalances instead of serializing on the slowest static chunk. work
// is the total scalar-op estimate the pool's gate and grid are taken from.
func parallelRows(rows int, work int, fn func(r0, r1 int)) {
	if !pool.Parallel(work) {
		fn(0, rows)
		return
	}
	pool.Do(rows, pool.Grain(rows, work/rows, 0), fn)
}

// MatMul returns a × b. It panics if the inner dimensions disagree.
//
// Large, mostly-dense products go through the cache-blocked packed kernel
// (see gemm.go); small or sparse ones stay on the ikj streaming kernel that
// skips zero elements of a.
func MatMul(a, b *Dense) *Dense {
	if a.cols != b.rows {
		panic(fmt.Sprintf("la: MatMul %dx%d × %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	out := NewDense(a.rows, b.cols)
	work := a.rows * a.cols * b.cols
	sw := mMatMulTimer.Start()
	mMatMulCalls.Inc()
	mFlops.Add(2 * int64(work))
	switch {
	case a.rows*b.cols <= kSplitMaxOut && a.cols >= kSplitMinK:
		// Skinny product (Xᵀ·X-shaped): k-outer order reads each operand
		// once and keeps the whole output in cache; a reduction over k.
		mMatMulKSplit.Inc()
		gemmKSplit(a, b, out)
	case gemmUseBlocked(a, b.cols):
		mMatMulBlocked.Inc()
		gemmBlocked(a, b, out)
	default:
		mMatMulStream.Inc()
		parallelRows(a.rows, work, func(r0, r1 int) {
			gemmRows(a, b, out, r0, r1)
		})
	}
	sw.Stop()
	return out
}

// gemmRows computes out[r0:r1] = a[r0:r1] × b using an ikj loop order so the
// inner loop streams contiguously over b's rows and out's rows.
//
//dmml:noalloc
func gemmRows(a, b, out *Dense, r0, r1 int) {
	n := b.cols
	for i := r0; i < r1; i++ {
		arow := a.data[i*a.cols : (i+1)*a.cols]
		orow := out.data[i*n : (i+1)*n]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.data[k*n : (k+1)*n]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
}

// MatVec returns m × x as a new length-rows vector.
func MatVec(m *Dense, x []float64) []float64 {
	return MatVecInto(make([]float64, m.rows), m, x)
}

// MatVecInto computes m × x into dst (overwriting it) and returns dst. dst
// must have length m.Rows(). A warm call allocates nothing, so iterative
// solvers can reuse one buffer across thousands of calls.
func MatVecInto(dst []float64, m *Dense, x []float64) []float64 {
	if m.cols != len(x) {
		panic(fmt.Sprintf("la: MatVec %dx%d × len %d", m.rows, m.cols, len(x)))
	}
	if len(dst) != m.rows {
		panic(fmt.Sprintf("la: MatVecInto dst len %d for %d rows", len(dst), m.rows))
	}
	mMatVecCalls.Inc()
	mFlops.Add(2 * int64(m.rows) * int64(m.cols))
	if !pool.Parallel(m.rows * m.cols) {
		matVecRows(dst, m, x, 0, m.rows)
		return dst
	}
	c := denseCalls.Get()
	c.m, c.dst, c.x = m, dst, x
	parallelRows(m.rows, m.rows*m.cols, c.matVec)
	c.put()
	return dst
}

// denseCall is one MatVecInto, VecMatInto or GramInto call's state on the
// pool, recycled with its range methods bound once, so the dispatch
// allocates no closure.
type denseCall struct {
	m      *Dense
	dst, x []float64
	matVec func(r0, r1 int)
	vecMat func(acc []float64, lo, hi int)
	gram   func(acc []float64, lo, hi int)
}

var denseCalls = pool.Freelist[denseCall]{New: func() *denseCall {
	c := &denseCall{}
	c.matVec = c.matVecRange
	c.vecMat = c.vecMatRange
	c.gram = c.gramRange
	return c
}}

// matVecRange is MatVecInto over rows [r0,r1).
func (c *denseCall) matVecRange(r0, r1 int) { matVecRows(c.dst[r0:r1], c.m, c.x, r0, r1) }

// vecMatRange is VecMatInto's contribution of rows [lo,hi), into acc.
func (c *denseCall) vecMatRange(acc []float64, lo, hi int) {
	vecMatAccum(acc, c.x[lo:hi], c.m, lo, hi)
}

// gramRange is GramInto's contribution of rows [lo,hi), into acc.
func (c *denseCall) gramRange(acc []float64, lo, hi int) { gramAccum(c.m, acc, lo, hi) }

// put drops the call's references and recycles it.
func (c *denseCall) put() {
	c.m, c.dst, c.x = nil, nil, nil
	denseCalls.Put(c)
}

// denseTileOn selects the dense tiles (dense_amd64.s) for matVecRows,
// vecMatAccum and gramAccum: the CPU runs them. They compute the Go loops'
// bits, so nothing else is checked; tests turn it off to compare both.
var denseTileOn = vectorTilesSupported()

// matVecRows sets dst[k] = m.RowView(r0+k)·x for the rows [r0,r1), four rows
// per sweep so each load of x feeds four products. Every row keeps Dot's
// association — four strided partial sums and a tail, added as
// s + s0 + s1 + s2 + s3 — so each result is Dot's, bit for bit. Where the
// dense tile is on, it runs the four-row sweeps, each row's partial sums the
// lanes of one vector; the last r1−r0 mod 4 rows run in Go.
//
//dmml:noalloc
func matVecRows(dst []float64, m *Dense, x []float64, r0, r1 int) {
	n := m.cols
	x = x[:n]
	i := r0
	if denseTileOn && r1-r0 >= 4 {
		i += matVecTile4(dst[:r1-r0], m.data[r0*n:r1*n], x)
	}
	for ; i+4 <= r1; i += 4 {
		a := m.data[i*n : (i+1)*n]
		b := m.data[(i+1)*n : (i+2)*n]
		c := m.data[(i+2)*n : (i+3)*n]
		d := m.data[(i+3)*n : (i+4)*n]
		var a0, a1, a2, a3, b0, b1, b2, b3 float64
		var c0, c1, c2, c3, d0, d1, d2, d3 float64
		j := 0
		for ; j+4 <= n; j += 4 {
			x0, x1, x2, x3 := x[j], x[j+1], x[j+2], x[j+3]
			a0 += a[j] * x0
			a1 += a[j+1] * x1
			a2 += a[j+2] * x2
			a3 += a[j+3] * x3
			b0 += b[j] * x0
			b1 += b[j+1] * x1
			b2 += b[j+2] * x2
			b3 += b[j+3] * x3
			c0 += c[j] * x0
			c1 += c[j+1] * x1
			c2 += c[j+2] * x2
			c3 += c[j+3] * x3
			d0 += d[j] * x0
			d1 += d[j+1] * x1
			d2 += d[j+2] * x2
			d3 += d[j+3] * x3
		}
		var as, bs, cs, ds float64
		for ; j < n; j++ {
			as += a[j] * x[j]
			bs += b[j] * x[j]
			cs += c[j] * x[j]
			ds += d[j] * x[j]
		}
		dst[i-r0] = as + a0 + a1 + a2 + a3
		dst[i+1-r0] = bs + b0 + b1 + b2 + b3
		dst[i+2-r0] = cs + c0 + c1 + c2 + c3
		dst[i+3-r0] = ds + d0 + d1 + d2 + d3
	}
	for ; i < r1; i++ {
		dst[i-r0] = Dot(m.data[i*n:(i+1)*n], x)
	}
}

// VecMat returns xᵀ × m (equivalently mᵀ × x) as a new length-cols vector.
func VecMat(x []float64, m *Dense) []float64 {
	return VecMatInto(make([]float64, m.cols), x, m)
}

// VecMatInto computes xᵀ × m into dst (overwriting it) and returns dst. dst
// must have length m.Cols(). Rows are summed in the fixed chunks of
// pool.Grain through pool.Reduce, so the result is bit-identical at every
// core count; a warm call allocates nothing on either side of the gate.
func VecMatInto(dst []float64, x []float64, m *Dense) []float64 {
	if m.rows != len(x) {
		panic(fmt.Sprintf("la: VecMat len %d × %dx%d", len(x), m.rows, m.cols))
	}
	if len(dst) != m.cols {
		panic(fmt.Sprintf("la: VecMatInto dst len %d for %d cols", len(dst), m.cols))
	}
	mVecMatCalls.Inc()
	mFlops.Add(2 * int64(m.rows) * int64(m.cols))
	for j := range dst {
		dst[j] = 0
	}
	if pool.Parallel(m.rows * m.cols) {
		c := denseCalls.Get()
		c.m, c.x = m, x
		pool.Reduce(dst, m.rows, m.cols, c.vecMat)
		c.put()
	} else {
		pool.ReduceSerial(dst, m.rows, m.cols, func(acc []float64, lo, hi int) { vecMatAccum(acc, x[lo:hi], m, lo, hi) })
	}
	return dst
}

// vecMatAccum adds xᵀ × m[r0:r1] into acc, where x[k] weighs row r0+k. Rows
// are folded into the accumulator two at a time: for narrow matrices the
// per-row loop is short enough that call and loop overhead dominate, and the
// fused two-row sweep doubles the flops retired per iteration. Rows are
// sliced out of m.data directly, as in matVecRows: RowView's range panic
// keeps it from inlining. Where the dense tile is on, a pair whose weights
// are both nonzero starts it, and it takes every following such pair; a
// pair with a zero weight, and the odd last row, run in Go.
//
//dmml:noalloc
func vecMatAccum(acc, x []float64, m *Dense, r0, r1 int) {
	n := len(acc)
	x = x[:r1-r0]
	i := r0
	for ; i+1 < r1; i += 2 {
		x0, x1 := x[i-r0], x[i+1-r0]
		row0 := m.data[i*m.cols:][:n]
		row1 := m.data[(i+1)*m.cols:][:n]
		switch {
		case x0 == 0 && x1 == 0:
		case x1 == 0:
			for b, v := range row0 {
				acc[b] += x0 * v
			}
		case x0 == 0:
			for b, v := range row1 {
				acc[b] += x1 * v
			}
		case denseTileOn:
			i += vecMatTile2(acc, m.data[i*m.cols:r1*m.cols], x[i-r0:]) - 2
		default:
			for b := range acc {
				acc[b] += x0*row0[b] + x1*row1[b]
			}
		}
	}
	for ; i < r1; i++ {
		if xi := x[i-r0]; xi != 0 {
			for b, v := range m.data[i*m.cols:][:n] {
				acc[b] += xi * v
			}
		}
	}
}

// Gram returns XᵀX exploiting symmetry (syrk). The result is cols×cols.
func Gram(x *Dense) *Dense {
	out := NewDense(x.cols, x.cols)
	GramInto(out, x)
	return out
}

// GramInto computes XᵀX into out (overwriting it) and returns out. out must
// be cols×cols. Rows are summed in the fixed chunks of pool.Grain through
// pool.Reduce, so the result is bit-identical at every core count; a warm
// call allocates nothing on either side of the gate.
func GramInto(out *Dense, x *Dense) *Dense {
	d := x.cols
	if out.rows != d || out.cols != d {
		panic(fmt.Sprintf("la: GramInto %dx%d dst for %d cols", out.rows, out.cols, d))
	}
	sw := mGramTimer.Start()
	defer sw.Stop()
	mGramCalls.Inc()
	mFlops.Add(int64(x.rows) * int64(d) * int64(d))
	out.Zero()
	if pool.Parallel(x.rows * d * d) {
		c := denseCalls.Get()
		c.m = x
		pool.Reduce(out.data, x.rows, d*d, c.gram)
		c.put()
	} else {
		pool.ReduceSerial(out.data, x.rows, d*d, func(acc []float64, lo, hi int) { gramAccum(x, acc, lo, hi) })
	}
	// Mirror the upper triangle into the lower triangle.
	for i := 0; i < d; i++ {
		for j := 0; j < i; j++ {
			out.data[i*d+j] = out.data[j*d+i]
		}
	}
	return out
}

// gramTile is the column-block edge for the tiled syrk accumulation: a
// gramTile² output tile (32 KB) stays L1-resident while a panel of rows
// streams through it.
const gramTile = 64

// gramRowPanel bounds how many rows are swept per tile pass so the row panel
// itself stays cache-resident across the (ta,tb) tile loop.
const gramRowPanel = 256

// gramPairAccum adds two rows' contributions to one accumulator row of the
// upper triangle, skipping zero coefficients so sparse inputs keep their
// short-circuit (and 0·Inf stays out of the sum).
//
//dmml:noalloc
func gramPairAccum(arow []float64, a, d int, va0, va1 float64, row0, row1 []float64) {
	switch {
	case va0 == 0 && va1 == 0:
	case va1 == 0:
		for b := a; b < d; b++ {
			arow[b] += va0 * row0[b]
		}
	case va0 == 0:
		for b := a; b < d; b++ {
			arow[b] += va1 * row1[b]
		}
	default:
		for b := a; b < d; b++ {
			arow[b] += va0*row0[b] + va1*row1[b]
		}
	}
}

// gramAccum adds the upper triangle of X[r0:r1]ᵀ X[r0:r1] into the row-major
// d×d buffer acc. Wide matrices are tiled over column blocks so the
// accumulator tile stays in L1 instead of thrashing a d²-sized working set
// per input row. Rows are sliced out of x.data directly: RowView's range
// panic keeps it from inlining.
//
//dmml:noalloc
func gramAccum(x *Dense, acc []float64, r0, r1 int) {
	d := x.cols
	if d <= gramTile {
		// Narrow matrices: the triangular inner loop averages only d/2
		// iterations, so per-iteration overhead dominates. Folding four input
		// rows into each accumulator sweep retires 8 flops per iteration of
		// that short loop instead of 2; rows with zeros fall back to pairwise
		// updates that keep the zero-skip (and its 0·Inf semantics). Where
		// the dense tile is on, an accumulator row whose four coefficients
		// are all nonzero starts it, and it takes every following such row;
		// at d = 1 each call folds one product, and costs more than the Go
		// loop (8192 rows: 27 µs against 20).
		tile := denseTileOn && d > 1
		i := r0
		for ; i+3 < r1; i += 4 {
			quad := x.data[i*d : (i+4)*d]
			row0, row1, row2, row3 := quad[:d], quad[d:2*d], quad[2*d:3*d], quad[3*d:]
			for a := 0; a < d; a++ {
				va0, va1, va2, va3 := row0[a], row1[a], row2[a], row3[a]
				if va0 == 0 && va1 == 0 && va2 == 0 && va3 == 0 {
					continue
				}
				arow := acc[a*d : (a+1)*d]
				if va0 != 0 && va1 != 0 && va2 != 0 && va3 != 0 {
					if tile {
						a = gramTile4(acc, quad, a) - 1
						continue
					}
					for b := a; b < d; b++ {
						arow[b] += va0*row0[b] + va1*row1[b] + va2*row2[b] + va3*row3[b]
					}
					continue
				}
				gramPairAccum(arow, a, d, va0, va1, row0, row1)
				gramPairAccum(arow, a, d, va2, va3, row2, row3)
			}
		}
		for ; i+1 < r1; i += 2 {
			row0, row1 := x.data[i*d:(i+1)*d], x.data[(i+1)*d:(i+2)*d]
			for a := 0; a < d; a++ {
				gramPairAccum(acc[a*d:(a+1)*d], a, d, row0[a], row1[a], row0, row1)
			}
		}
		for ; i < r1; i++ {
			row := x.data[i*d : (i+1)*d]
			for a, va := range row {
				if va == 0 {
					continue
				}
				arow := acc[a*d : (a+1)*d]
				for b := a; b < d; b++ {
					arow[b] += va * row[b]
				}
			}
		}
		return
	}
	for i0 := r0; i0 < r1; i0 += gramRowPanel {
		i1 := min(i0+gramRowPanel, r1)
		for ta := 0; ta < d; ta += gramTile {
			taMax := min(ta+gramTile, d)
			for tb := ta; tb < d; tb += gramTile {
				tbMax := min(tb+gramTile, d)
				for i := i0; i < i1; i++ {
					row := x.data[i*d : (i+1)*d]
					for a := ta; a < taMax; a++ {
						va := row[a]
						if va == 0 {
							continue
						}
						arow := acc[a*d : (a+1)*d]
						b0 := tb
						if a > b0 {
							b0 = a
						}
						for b := b0; b < tbMax; b++ {
							arow[b] += va * row[b]
						}
					}
				}
			}
		}
	}
}

// XtY returns Xᵀy for a matrix X and a column vector y of length X.rows.
func XtY(x *Dense, y []float64) []float64 { return XtYInto(make([]float64, x.cols), x, y) }

// XtYInto computes Xᵀy into dst (overwriting it) and returns dst. dst must
// have length X.Cols(). Like VecMatInto it allocates nothing in the serial
// regime, so solvers that compute a gradient per iteration can reuse one
// buffer instead of allocating a fresh vector every call.
func XtYInto(dst []float64, x *Dense, y []float64) []float64 { return VecMatInto(dst, y, x) }

// Trace returns the sum of diagonal elements of a square matrix.
func Trace(m *Dense) float64 {
	if m.rows != m.cols {
		panic(fmt.Sprintf("la: Trace of non-square %dx%d", m.rows, m.cols))
	}
	var s float64
	for i := 0; i < m.rows; i++ {
		s += m.data[i*m.cols+i]
	}
	return s
}

// TraceMatMul returns trace(A×B) without materializing the product.
// A must be p×q and B q×p.
func TraceMatMul(a, b *Dense) float64 {
	if a.cols != b.rows || a.rows != b.cols {
		panic(fmt.Sprintf("la: TraceMatMul %dx%d × %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	var s float64
	for i := 0; i < a.rows; i++ {
		arow := a.RowView(i)
		for k, av := range arow {
			s += av * b.data[k*b.cols+i]
		}
	}
	return s
}
