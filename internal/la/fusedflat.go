package la

import "math"

// Flat template kernels: the second tier of the fused kernel compiler,
// chosen by program shape. The closure tree already makes one direct call
// per op per tile, but a matched template goes further — one loop, no
// calls, no stack scratch. The matcher runs at compile time over the
// structural tree the lowering builds alongside the closures (fkNode) and
// recognizes the shapes
// `dmml -stats` shows dominate real scripts: sigmoid chains, axpy-like
// cells, scaled binary cells, and the rowagg-over-product family. Each
// template stays only while it measures faster than the closure tree it
// replaces (DESIGN.md §4.5).
//
// Cell templates must be bit-identical to the closure tree and the unfused
// evaluator: their loops replicate the op sequence exactly, leaning only on
// identities that hold bitwise (IEEE add/mul commute; x*1 ≡ x; a-b ≡
// a+(-b); x+0 only ever feeds sigmoid, where ±0 agree). Aggregate templates
// are covered by the reduction tolerance the fused≡unfused property already
// grants (relative 1e-8), so they reassociate freely with unrolled
// accumulators.

// fkNode is the structural shadow of one compiled node: a dense load, a
// scalar reference, or an operator over children. Pure compile-time data.
type fkNode struct {
	code   FuseOpCode
	arg    int    // input index for dense loads
	scalar bool   // scalar reference (constant, input, or derived)
	sref   fkSRef // valid when scalar
	l, r   *fkNode
}

// is reports whether n is a vector-valued node with the given opcode.
func (n *fkNode) is(code FuseOpCode) bool {
	return n != nil && !n.scalar && n.code == code
}

// dense reports the input index when n is a plain dense load.
func (n *fkNode) dense() (int, bool) {
	if n != nil && !n.scalar && n.code == FuseLoad {
		return n.arg, true
	}
	return 0, false
}

// scalarRef reports n's scalar reference when n is scalar-valued.
func (n *fkNode) scalarRef() (fkSRef, bool) {
	if n != nil && n.scalar {
		return n.sref, true
	}
	return fkSRef{}, false
}

// matchScaled matches X, X*s, and s*X (IEEE multiplication commutes bit
// for bit). The bare load reports scale 1 — a bitwise identity.
func matchScaled(n *fkNode) (int, fkSRef, bool) {
	if arg, ok := n.dense(); ok {
		return arg, fkConst(1), true
	}
	if n.is(FuseMul) {
		if arg, ok := n.l.dense(); ok {
			if s, ok2 := n.r.scalarRef(); ok2 {
				return arg, s, true
			}
		}
		if arg, ok := n.r.dense(); ok {
			if s, ok2 := n.l.scalarRef(); ok2 {
				return arg, s, true
			}
		}
	}
	return 0, fkSRef{}, false
}

// matchScaledStrict is matchScaled without the bare-load form: a real
// multiply must be present.
func matchScaledStrict(n *fkNode) (int, fkSRef, bool) {
	if _, bare := n.dense(); bare {
		return 0, fkSRef{}, false
	}
	return matchScaled(n)
}

// matchAffine matches X, X*a, a*X, and those plus a scalar b in either
// order: the m = X*a + b shapes feeding sigmoid. Defaults a=1, b=0 keep
// one loop shape; both defaults are bitwise-safe in sigmoid position.
func matchAffine(n *fkNode) (int, fkSRef, fkSRef, bool) {
	if arg, a, ok := matchScaled(n); ok {
		return arg, a, fkConst(0), true
	}
	if n.is(FuseAdd) {
		if arg, a, ok := matchScaledStrict(n.l); ok {
			if b, ok2 := n.r.scalarRef(); ok2 {
				return arg, a, b, true
			}
		}
		if arg, a, ok := matchScaledStrict(n.r); ok {
			if b, ok2 := n.l.scalarRef(); ok2 {
				return arg, a, b, true
			}
		}
		// X + b (scale 1): the add must still be real.
		if arg, ok := n.l.dense(); ok {
			if b, ok2 := n.r.scalarRef(); ok2 {
				return arg, fkConst(1), b, true
			}
		}
		if arg, ok := n.r.dense(); ok {
			if b, ok2 := n.l.scalarRef(); ok2 {
				return arg, fkConst(1), b, true
			}
		}
	}
	return 0, fkSRef{}, fkSRef{}, false
}

// matchFlat installs flat kernels for recognized template shapes; the
// closure tree remains bound for entry points without a flat form.
func matchFlat(k *fusedKernel, n *fkNode) {
	matchFlatCell(k, n)
	matchFlatAgg(k, n)
}

// matchFlatCell recognizes element-wise output templates.
func matchFlatCell(k *fusedKernel, n *fkNode) {
	// sigchain: sigmoid(X*a+b) * X - X/c — the E15 heavy hitter.
	if n.is(FuseSub) && n.r.is(FuseDiv) {
		if sig, xArg, ok := matchSigMulX(n.l); ok {
			if dArg, ok2 := n.r.l.dense(); ok2 && dArg == xArg {
				if c, ok3 := n.r.r.scalarRef(); ok3 {
					if aArg, aR, bR, ok4 := matchAffine(sig.l); ok4 && aArg == xArg {
						arg := xArg
						k.flatCell = func(ins []FusedInput, sv, dst []float64, lo, hi int) {
							flatSigChain(dst, ins[arg].D.data[lo:hi],
								aR.loadIn(ins, sv), bR.loadIn(ins, sv), c.loadIn(ins, sv))
						}
						k.flat = "cell.sigchain"
						return
					}
				}
			}
		}
	}
	// A lone sigmoid(X*a+b) has no template: the closure tree makes the
	// same passes, and a flat loop measured no faster.
	//
	// axpy: X ± Y*s in its four arrangements (add commutes bitwise, the
	// two sub orders get distinct loops).
	if n.is(FuseAdd) || n.is(FuseSub) {
		if matchFlatAxpy(k, n) {
			return
		}
	}
	// scalebin: (X ∘ Y) scaled by s — ∘ ∈ {+,-,×}, scale by × (either
	// order; commutes bitwise) or ÷.
	matchFlatScaleBin(k, n)
}

// matchSigMulX matches sigmoid(...) * X in either operand order, returning
// the sigmoid node and X's input index.
func matchSigMulX(n *fkNode) (*fkNode, int, bool) {
	if !n.is(FuseMul) {
		return nil, 0, false
	}
	if n.l.is(FuseSigmoid) {
		if arg, ok := n.r.dense(); ok {
			return n.l, arg, true
		}
	}
	if n.r.is(FuseSigmoid) {
		if arg, ok := n.l.dense(); ok {
			return n.r, arg, true
		}
	}
	return nil, 0, false
}

func matchFlatAxpy(k *fusedKernel, n *fkNode) bool {
	lArg, lDense := n.l.dense()
	rArg, rDense := n.r.dense()
	if n.is(FuseAdd) {
		if lDense {
			if yArg, s, ok := matchScaledStrict(n.r); ok {
				setFlatAxpy(k, flatAxpyAdd, lArg, yArg, s)
				return true
			}
		}
		if rDense {
			if yArg, s, ok := matchScaledStrict(n.l); ok {
				setFlatAxpy(k, flatAxpyAdd, rArg, yArg, s)
				return true
			}
		}
	} else { // FuseSub
		if lDense {
			if yArg, s, ok := matchScaledStrict(n.r); ok {
				setFlatAxpy(k, flatAxpySub, lArg, yArg, s)
				return true
			}
		}
		if rDense {
			if yArg, s, ok := matchScaledStrict(n.l); ok {
				setFlatAxpy(k, flatAxpyRSub, rArg, yArg, s)
				return true
			}
		}
	}
	return false
}

func setFlatAxpy(k *fusedKernel, loop func(dst, x, y []float64, s float64), xArg, yArg int, s fkSRef) {
	k.flatCell = func(ins []FusedInput, sv, dst []float64, lo, hi int) {
		loop(dst, ins[xArg].D.data[lo:hi], ins[yArg].D.data[lo:hi], s.loadIn(ins, sv))
	}
	k.flat = "cell.axpy"
}

func matchFlatScaleBin(k *fusedKernel, n *fkNode) {
	var bin *fkNode
	var s fkSRef
	div := false
	switch {
	case n.is(FuseMul):
		if sc, ok := n.r.scalarRef(); ok {
			bin, s = n.l, sc
		} else if sc, ok := n.l.scalarRef(); ok {
			bin, s = n.r, sc
		}
	case n.is(FuseDiv):
		if sc, ok := n.r.scalarRef(); ok {
			bin, s, div = n.l, sc, true
		}
	}
	if bin == nil {
		return
	}
	xArg, okX := bin.l.dense()
	yArg, okY := bin.r.dense()
	if !okX || !okY {
		return
	}
	var loop func(dst, x, y []float64, s float64)
	switch {
	case bin.is(FuseAdd) && !div:
		loop = flatSBAddMul
	case bin.is(FuseAdd):
		loop = flatSBAddDiv
	case bin.is(FuseSub) && !div:
		loop = flatSBSubMul
	case bin.is(FuseSub):
		loop = flatSBSubDiv
	case bin.is(FuseMul) && !div:
		loop = flatSBMulMul
	case bin.is(FuseMul):
		loop = flatSBMulDiv
	default:
		return
	}
	k.flatCell = func(ins []FusedInput, sv, dst []float64, lo, hi int) {
		loop(dst, ins[xArg].D.data[lo:hi], ins[yArg].D.data[lo:hi], s.loadIn(ins, sv))
	}
	k.flat = "cell.scalebin"
}

// matchFlatAgg recognizes the element terms whose reductions dominate the
// aggregate templates and installs both the full-sum and per-row kernels.
// A cell match keeps naming priority; the agg kernels still bind.
func matchFlatAgg(k *fusedKernel, n *fkNode) {
	name := ""
	if n.is(FuseSq) {
		if n.l.is(FuseSub) {
			xArg, okX := n.l.l.dense()
			yArg, okY := n.l.r.dense()
			if okX && okY {
				k.flatSum = func(ins []FusedInput, sv []float64, lo, hi int) float64 {
					return sumSqDiff(ins[xArg].D.data[lo:hi], ins[yArg].D.data[lo:hi])
				}
				k.flatRow = func(ins []FusedInput, sv, v, dst []float64, cols, r0, r1 int) {
					x, y := ins[xArg].D.data, ins[yArg].D.data
					for r := r0; r < r1; r++ {
						row := x[r*cols : (r+1)*cols]
						yrw := y[r*cols : (r+1)*cols]
						if v == nil {
							dst[r] = sumSqDiff(row, yrw)
						} else {
							dst[r] = dotSqDiff(row, yrw, v)
						}
					}
				}
				name = "agg.sqdiff"
			}
		} else if xArg, ok := n.l.dense(); ok {
			k.flatSum = func(ins []FusedInput, sv []float64, lo, hi int) float64 {
				return sumSq(ins[xArg].D.data[lo:hi])
			}
			k.flatRow = func(ins []FusedInput, sv, v, dst []float64, cols, r0, r1 int) {
				x := ins[xArg].D.data
				for r := r0; r < r1; r++ {
					row := x[r*cols : (r+1)*cols]
					if v == nil {
						dst[r] = sumSq(row)
					} else {
						dst[r] = dotSq(row, v)
					}
				}
			}
			name = "agg.sq"
		}
	}
	if n.is(FuseMul) {
		xArg, okX := n.l.dense()
		yArg, okY := n.r.dense()
		if okX && okY {
			k.flatSum = func(ins []FusedInput, sv []float64, lo, hi int) float64 {
				return sumMul(ins[xArg].D.data[lo:hi], ins[yArg].D.data[lo:hi])
			}
			k.flatRow = func(ins []FusedInput, sv, v, dst []float64, cols, r0, r1 int) {
				x, y := ins[xArg].D.data, ins[yArg].D.data
				for r := r0; r < r1; r++ {
					row := x[r*cols : (r+1)*cols]
					yrw := y[r*cols : (r+1)*cols]
					if v == nil {
						dst[r] = sumMul(row, yrw)
					} else {
						dst[r] = dotMul(row, yrw, v)
					}
				}
			}
			name = "agg.mul"
		}
	}
	if n.is(FuseAdd) {
		if matchFlatAggAdd(k, n) {
			name = k.flat // matchFlatAggAdd names itself when unnamed
		}
	}
	if name != "" && k.flat == "" {
		k.flat = name
	}
}

// matchFlatAggAdd handles the two Add-rooted aggregate terms: X*Y + Z
// (muladd, all dense) and X*s + Y (scaleadd). Add commutes bitwise, so
// both operand orders match.
func matchFlatAggAdd(k *fusedKernel, n *fkNode) bool {
	for _, or := range [2][2]*fkNode{{n.l, n.r}, {n.r, n.l}} {
		mul, other := or[0], or[1]
		if !mul.is(FuseMul) {
			continue
		}
		zArg, okZ := other.dense()
		if !okZ {
			continue
		}
		xArg, okX := mul.l.dense()
		yArg, okY := mul.r.dense()
		if okX && okY {
			k.flatSum = func(ins []FusedInput, sv []float64, lo, hi int) float64 {
				return sumMulAdd(ins[xArg].D.data[lo:hi], ins[yArg].D.data[lo:hi], ins[zArg].D.data[lo:hi])
			}
			k.flatRow = func(ins []FusedInput, sv, v, dst []float64, cols, r0, r1 int) {
				x, y, z := ins[xArg].D.data, ins[yArg].D.data, ins[zArg].D.data
				for r := r0; r < r1; r++ {
					b, e := r*cols, (r+1)*cols
					if v == nil {
						dst[r] = sumMulAdd(x[b:e], y[b:e], z[b:e])
					} else {
						dst[r] = dotMulAdd(x[b:e], y[b:e], z[b:e], v)
					}
				}
			}
			if k.flat == "" {
				k.flat = "agg.muladd"
			}
			return true
		}
		if sArg, s, ok := matchScaledStrict(mul); ok {
			k.flatSum = func(ins []FusedInput, sv []float64, lo, hi int) float64 {
				return sumScaleAdd(ins[sArg].D.data[lo:hi], s.loadIn(ins, sv), ins[zArg].D.data[lo:hi])
			}
			k.flatRow = func(ins []FusedInput, sv, v, dst []float64, cols, r0, r1 int) {
				x, y := ins[sArg].D.data, ins[zArg].D.data
				sc := s.loadIn(ins, sv)
				for r := r0; r < r1; r++ {
					b, e := r*cols, (r+1)*cols
					if v == nil {
						dst[r] = sumScaleAdd(x[b:e], sc, y[b:e])
					} else {
						dst[r] = dotScaleAdd(x[b:e], sc, y[b:e], v)
					}
				}
			}
			if k.flat == "" {
				k.flat = "agg.scaleadd"
			}
			return true
		}
	}
	return false
}

// --- cell template loops ---

// flatSigChain computes dst = sigmoid(x*a+b)*x - x/c in a single register
// pass: the affine argument feeds the 8-lane exponential directly and the
// chain tail consumes it without ever touching a staging buffer — x is
// read once and dst written once per element. Bit-identical to the op
// sequence. dst may alias x.
//
//dmml:noalloc
func flatSigChain(dst, x []float64, a, b, c float64) {
	mode := fuseExpMode
	x = x[:len(dst)]
	i := 0
	if mode != 0 {
		for ; i+8 <= len(dst); i += 8 {
			x0, x1, x2, x3 := x[i], x[i+1], x[i+2], x[i+3]
			x4, x5, x6, x7 := x[i+4], x[i+5], x[i+6], x[i+7]
			m0 := x0*a + b
			m1 := x1*a + b
			m2 := x2*a + b
			m3 := x3*a + b
			m4 := x4*a + b
			m5 := x5*a + b
			m6 := x6*a + b
			m7 := x7*a + b
			// The x/c divisions are independent of the exponential, and the
			// exp8 FMA chain alone overflows the reorder window — issued
			// here, before it, they run on the divider port underneath the
			// polynomial instead of queueing behind it.
			d0 := x0 / c
			d1 := x1 / c
			d2 := x2 / c
			d3 := x3 / c
			d4 := x4 / c
			d5 := x5 / c
			d6 := x6 / c
			d7 := x7 / c
			a0, a1, a2, a3 := math.Abs(m0), math.Abs(m1), math.Abs(m2), math.Abs(m3)
			a4, a5, a6, a7 := math.Abs(m4), math.Abs(m5), math.Abs(m6), math.Abs(m7)
			if a0 >= sigGateLo && a0 < sigGateHi &&
				a1 >= sigGateLo && a1 < sigGateHi &&
				a2 >= sigGateLo && a2 < sigGateHi &&
				a3 >= sigGateLo && a3 < sigGateHi &&
				a4 >= sigGateLo && a4 < sigGateHi &&
				a5 >= sigGateLo && a5 < sigGateHi &&
				a6 >= sigGateLo && a6 < sigGateHi &&
				a7 >= sigGateLo && a7 < sigGateHi {
				var e0, e1, e2, e3, e4, e5, e6, e7 float64
				if mode == 1 {
					e0, e1, e2, e3, e4, e5, e6, e7 = exp8FMA(-a0, -a1, -a2, -a3, -a4, -a5, -a6, -a7)
				} else {
					e0, e1, e2, e3, e4, e5, e6, e7 = exp8NoFMA(-a0, -a1, -a2, -a3, -a4, -a5, -a6, -a7)
				}
				dst[i] = sigLane(m0, e0)*x0 - d0
				dst[i+1] = sigLane(m1, e1)*x1 - d1
				dst[i+2] = sigLane(m2, e2)*x2 - d2
				dst[i+3] = sigLane(m3, e3)*x3 - d3
				dst[i+4] = sigLane(m4, e4)*x4 - d4
				dst[i+5] = sigLane(m5, e5)*x5 - d5
				dst[i+6] = sigLane(m6, e6)*x6 - d6
				dst[i+7] = sigLane(m7, e7)*x7 - d7
			} else {
				dst[i] = Sigmoid(m0)*x0 - d0
				dst[i+1] = Sigmoid(m1)*x1 - d1
				dst[i+2] = Sigmoid(m2)*x2 - d2
				dst[i+3] = Sigmoid(m3)*x3 - d3
				dst[i+4] = Sigmoid(m4)*x4 - d4
				dst[i+5] = Sigmoid(m5)*x5 - d5
				dst[i+6] = Sigmoid(m6)*x6 - d6
				dst[i+7] = Sigmoid(m7)*x7 - d7
			}
		}
	}
	for ; i < len(dst); i++ {
		m := x[i]*a + b
		dst[i] = Sigmoid(m)*x[i] - x[i]/c
	}
}

//dmml:noalloc
func flatAxpyAdd(dst, x, y []float64, s float64) {
	x, y = x[:len(dst)], y[:len(dst)]
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		dst[i] = x[i] + y[i]*s
		dst[i+1] = x[i+1] + y[i+1]*s
		dst[i+2] = x[i+2] + y[i+2]*s
		dst[i+3] = x[i+3] + y[i+3]*s
	}
	for ; i < len(dst); i++ {
		dst[i] = x[i] + y[i]*s
	}
}

//dmml:noalloc
func flatAxpySub(dst, x, y []float64, s float64) {
	x, y = x[:len(dst)], y[:len(dst)]
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		dst[i] = x[i] - y[i]*s
		dst[i+1] = x[i+1] - y[i+1]*s
		dst[i+2] = x[i+2] - y[i+2]*s
		dst[i+3] = x[i+3] - y[i+3]*s
	}
	for ; i < len(dst); i++ {
		dst[i] = x[i] - y[i]*s
	}
}

//dmml:noalloc
func flatAxpyRSub(dst, x, y []float64, s float64) {
	x, y = x[:len(dst)], y[:len(dst)]
	for i := range dst {
		dst[i] = y[i]*s - x[i]
	}
}

//dmml:noalloc
func flatSBAddMul(dst, x, y []float64, s float64) {
	x, y = x[:len(dst)], y[:len(dst)]
	for i := range dst {
		dst[i] = (x[i] + y[i]) * s
	}
}

//dmml:noalloc
func flatSBSubMul(dst, x, y []float64, s float64) {
	x, y = x[:len(dst)], y[:len(dst)]
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		dst[i] = (x[i] - y[i]) * s
		dst[i+1] = (x[i+1] - y[i+1]) * s
		dst[i+2] = (x[i+2] - y[i+2]) * s
		dst[i+3] = (x[i+3] - y[i+3]) * s
	}
	for ; i < len(dst); i++ {
		dst[i] = (x[i] - y[i]) * s
	}
}

//dmml:noalloc
func flatSBMulMul(dst, x, y []float64, s float64) {
	x, y = x[:len(dst)], y[:len(dst)]
	for i := range dst {
		dst[i] = (x[i] * y[i]) * s
	}
}

//dmml:noalloc
func flatSBAddDiv(dst, x, y []float64, s float64) {
	x, y = x[:len(dst)], y[:len(dst)]
	for i := range dst {
		dst[i] = (x[i] + y[i]) / s
	}
}

//dmml:noalloc
func flatSBSubDiv(dst, x, y []float64, s float64) {
	x, y = x[:len(dst)], y[:len(dst)]
	for i := range dst {
		dst[i] = (x[i] - y[i]) / s
	}
}

//dmml:noalloc
func flatSBMulDiv(dst, x, y []float64, s float64) {
	x, y = x[:len(dst)], y[:len(dst)]
	for i := range dst {
		dst[i] = (x[i] * y[i]) / s
	}
}

// --- aggregate template loops (4-accumulator unrolled; reductions carry
// the fused properties' relative tolerance, so reassociation is free) ---

//dmml:noalloc
func sumSqDiff(x, y []float64) float64 {
	y = y[:len(x)]
	var s, s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(x); i += 4 {
		d0 := x[i] - y[i]
		d1 := x[i+1] - y[i+1]
		d2 := x[i+2] - y[i+2]
		d3 := x[i+3] - y[i+3]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	for ; i < len(x); i++ {
		d := x[i] - y[i]
		s += d * d
	}
	return s + s0 + s1 + s2 + s3
}

//dmml:noalloc
func dotSqDiff(x, y, v []float64) float64 {
	y, v = y[:len(x)], v[:len(x)]
	var s float64
	for i := range x {
		d := x[i] - y[i]
		s += d * d * v[i]
	}
	return s
}

//dmml:noalloc
func sumSq(x []float64) float64 {
	var s, s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(x); i += 4 {
		s0 += x[i] * x[i]
		s1 += x[i+1] * x[i+1]
		s2 += x[i+2] * x[i+2]
		s3 += x[i+3] * x[i+3]
	}
	for ; i < len(x); i++ {
		s += x[i] * x[i]
	}
	return s + s0 + s1 + s2 + s3
}

//dmml:noalloc
func dotSq(x, v []float64) float64 {
	v = v[:len(x)]
	var s float64
	for i := range x {
		s += x[i] * x[i] * v[i]
	}
	return s
}

//dmml:noalloc
func sumMul(x, y []float64) float64 {
	return Dot(x, y[:len(x)])
}

//dmml:noalloc
func dotMul(x, y, v []float64) float64 {
	y, v = y[:len(x)], v[:len(x)]
	var s float64
	for i := range x {
		s += x[i] * y[i] * v[i]
	}
	return s
}

//dmml:noalloc
func sumMulAdd(x, y, z []float64) float64 {
	y, z = y[:len(x)], z[:len(x)]
	var s, s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(x); i += 4 {
		s0 += x[i]*y[i] + z[i]
		s1 += x[i+1]*y[i+1] + z[i+1]
		s2 += x[i+2]*y[i+2] + z[i+2]
		s3 += x[i+3]*y[i+3] + z[i+3]
	}
	for ; i < len(x); i++ {
		s += x[i]*y[i] + z[i]
	}
	return s + s0 + s1 + s2 + s3
}

//dmml:noalloc
func dotMulAdd(x, y, z, v []float64) float64 {
	y, z, v = y[:len(x)], z[:len(x)], v[:len(x)]
	var s float64
	for i := range x {
		s += (x[i]*y[i] + z[i]) * v[i]
	}
	return s
}

//dmml:noalloc
func sumScaleAdd(x []float64, sc float64, y []float64) float64 {
	y = y[:len(x)]
	var s, s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(x); i += 4 {
		s0 += x[i]*sc + y[i]
		s1 += x[i+1]*sc + y[i+1]
		s2 += x[i+2]*sc + y[i+2]
		s3 += x[i+3]*sc + y[i+3]
	}
	for ; i < len(x); i++ {
		s += x[i]*sc + y[i]
	}
	return s + s0 + s1 + s2 + s3
}

//dmml:noalloc
func dotScaleAdd(x []float64, sc float64, y, v []float64) float64 {
	y, v = y[:len(x)], v[:len(x)]
	var s float64
	for i := range x {
		s += (x[i]*sc + y[i]) * v[i]
	}
	return s
}
