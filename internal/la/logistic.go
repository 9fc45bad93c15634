package la

import (
	"fmt"
	"math"
)

// Logistic loss log(1+exp(−z)), z = y·m, for opt's solvers. Value and
// margin-derivative both come from the one exponential e = exp(−|z|) ∈ [0,1],
// which neither overflows nor cancels for any z:
//
//	value = max(−z, 0) + log1p(e)
//	deriv = −y · (z < 0 ? 1 : e) / (1 + e)
//
// The scalar pair below and the tile kernel finish every lane through the
// same two functions, and the tile's exponentials are either math.Exp itself
// or the 8-lane ports the init probe certified bit-equal to it (fusedexp.go),
// so row-at-a-time SGD and the batched pass compute the same function to the
// bit, whatever the probe decided.

// signMask is all ones when z's sign bit is set, else zero.
//
//dmml:noalloc
func signMask(z float64) uint64 {
	return uint64(int64(math.Float64bits(z)) >> 63)
}

// logisticValue finishes the loss value from z and e = exp(−|z|),
// branch-free: −z is added only where z is negative.
//
//dmml:noalloc
func logisticValue(z, e float64) float64 {
	return math.Log1p(e) + math.Float64frombits(math.Float64bits(-z)&signMask(z))
}

// logisticDeriv finishes ∂/∂m = −y·σ(−z) from z and e = exp(−|z|): the
// numerator is 1 for z < 0 and e otherwise, selected by z's sign bit.
//
//dmml:noalloc
func logisticDeriv(z, e, y float64) float64 {
	mask := signMask(z)
	num := math.Float64frombits(math.Float64bits(e)&^mask | 0x3FF0000000000000&mask)
	return -y * num / (1 + e)
}

// LogisticValue returns log(1+exp(−y·m)).
//
//dmml:noalloc
func LogisticValue(m, y float64) float64 {
	z := y * m
	return logisticValue(z, math.Exp(-math.Abs(z)))
}

// LogisticDeriv returns ∂/∂m log(1+exp(−y·m)).
//
//dmml:noalloc
func LogisticDeriv(m, y float64) float64 {
	z := y * m
	return logisticDeriv(z, math.Exp(-math.Abs(z)), y)
}

// Sigmoid returns the logistic link 1/(1+e^{−m}) in its numerically stable
// form. sigmoidTile (fusedexp.go) reproduces it bit for bit, so fused, serving
// and scalar sigmoids all agree.
//
//dmml:noalloc
func Sigmoid(m float64) float64 {
	if m >= 0 {
		return 1 / (1 + math.Exp(-m))
	}
	e := math.Exp(m)
	return e / (1 + e)
}

// SigmoidInto writes Sigmoid(x[i]) into dst[i] and returns dst, through the
// tile-vectorized sigmoid: bit for bit the scalar function, at a fraction of
// its cost on long vectors. dst may alias x.
func SigmoidInto(dst, x []float64) []float64 {
	if len(dst) != len(x) {
		panic(fmt.Sprintf("la: SigmoidInto dst len %d for %d values", len(dst), len(x)))
	}
	sigmoidTile(dst, x)
	return dst
}

// logisticTileOn selects the vector tile for LogisticLossInto: the CPU
// runs it, the probe certified exp8FMA against math.Exp, and probeLogisticTile
// found the tile bit-equal to the Go path. Tests turn it off to compare both.
var logisticTileOn = probeLogisticTile()

// LogisticLossInto writes LogisticDeriv(margins[i], y[i]) into derivs[i] and
// returns Σ LogisticValue(margins[i], y[i]), added in index order. Where the
// vector tile is on, groups of four whose |z| all lie in [2⁻²⁸, 20) run on
// it; every other group and the tail run in Go (logisticGo), and the tile
// resumes after them. Both compute the scalar pair's bits. derivs may alias
// margins.
//
//dmml:noalloc
func LogisticLossInto(derivs, margins, y []float64) float64 {
	n := len(margins)
	if len(derivs) != n || len(y) != n {
		panic(fmt.Sprintf("la: LogisticLossInto %d margins, %d labels, %d derivs", n, len(y), len(derivs)))
	}
	total, i := 0.0, 0
	if logisticTileOn {
		for {
			var k int
			k, total = logisticTile4(derivs[i:], margins[i:], y[i:], total)
			if i += k; n-i < 4 {
				break
			}
			// The group at i left the gate.
			total = logisticGo(derivs[i:i+4], margins[i:i+4], y[i:i+4], total)
			i += 4
		}
	}
	return logisticGo(derivs[i:], margins[i:], y[i:], total)
}

// logisticGo is LogisticLossInto in Go, adding onto total. Groups of eight
// whose |z| all lie inside the exp probe's gate run their exponentials
// through the software-pipelined lanes; any other group, the tail, and every
// group when the probe failed call math.Exp — same bits, slower.
//
//dmml:noalloc
func logisticGo(derivs, margins, y []float64, total float64) float64 {
	n := len(margins)
	derivs, y = derivs[:n], y[:n]
	mode := fuseExpMode
	i := 0
	for ; i+8 <= n; i += 8 {
		y0, y1, y2, y3 := y[i], y[i+1], y[i+2], y[i+3]
		y4, y5, y6, y7 := y[i+4], y[i+5], y[i+6], y[i+7]
		z0, z1, z2, z3 := y0*margins[i], y1*margins[i+1], y2*margins[i+2], y3*margins[i+3]
		z4, z5, z6, z7 := y4*margins[i+4], y5*margins[i+5], y6*margins[i+6], y7*margins[i+7]
		a0, a1, a2, a3 := math.Abs(z0), math.Abs(z1), math.Abs(z2), math.Abs(z3)
		a4, a5, a6, a7 := math.Abs(z4), math.Abs(z5), math.Abs(z6), math.Abs(z7)
		var e0, e1, e2, e3, e4, e5, e6, e7 float64
		switch {
		case mode == 0 ||
			!(a0 >= sigGateLo && a0 < sigGateHi &&
				a1 >= sigGateLo && a1 < sigGateHi &&
				a2 >= sigGateLo && a2 < sigGateHi &&
				a3 >= sigGateLo && a3 < sigGateHi &&
				a4 >= sigGateLo && a4 < sigGateHi &&
				a5 >= sigGateLo && a5 < sigGateHi &&
				a6 >= sigGateLo && a6 < sigGateHi &&
				a7 >= sigGateLo && a7 < sigGateHi):
			e0, e1, e2, e3 = math.Exp(-a0), math.Exp(-a1), math.Exp(-a2), math.Exp(-a3)
			e4, e5, e6, e7 = math.Exp(-a4), math.Exp(-a5), math.Exp(-a6), math.Exp(-a7)
		case mode == 1:
			e0, e1, e2, e3, e4, e5, e6, e7 = exp8FMA(-a0, -a1, -a2, -a3, -a4, -a5, -a6, -a7)
		default:
			e0, e1, e2, e3, e4, e5, e6, e7 = exp8NoFMA(-a0, -a1, -a2, -a3, -a4, -a5, -a6, -a7)
		}
		total += logisticValue(z0, e0)
		total += logisticValue(z1, e1)
		total += logisticValue(z2, e2)
		total += logisticValue(z3, e3)
		total += logisticValue(z4, e4)
		total += logisticValue(z5, e5)
		total += logisticValue(z6, e6)
		total += logisticValue(z7, e7)
		derivs[i] = logisticDeriv(z0, e0, y0)
		derivs[i+1] = logisticDeriv(z1, e1, y1)
		derivs[i+2] = logisticDeriv(z2, e2, y2)
		derivs[i+3] = logisticDeriv(z3, e3, y3)
		derivs[i+4] = logisticDeriv(z4, e4, y4)
		derivs[i+5] = logisticDeriv(z5, e5, y5)
		derivs[i+6] = logisticDeriv(z6, e6, y6)
		derivs[i+7] = logisticDeriv(z7, e7, y7)
	}
	for ; i < n; i++ {
		z := y[i] * margins[i]
		e := math.Exp(-math.Abs(z))
		total += logisticValue(z, e)
		derivs[i] = logisticDeriv(z, e, y[i])
	}
	return total
}

// probeLogisticTile decides logisticTileOn: the CPU must run the tile,
// exp8FMA must be the certified exponential (the tile is its sequence), and
// the tile must match the Go path to the bit. It runs two sweeps. The first
// feeds logisticGo and the tile the same rows, 256 at a time, and compares
// every deriv and the running sum: a sweep of the gate in steps of 0.4%,
// exp's k·ln2 reduction boundaries, the gate's two ends, and the 512
// margins around the one where e crosses √2−1 (log1p's branch point), each
// under one of the four sign combinations of margin and label in turn. In a
// long sum one value's last bits are lost, so the second sweep runs each
// row as a group of four copies from a zero total against the scalar pair:
// 4096 positive margins whose e are evenly spaced in (0, 1), where the value
// is log1p(e) itself. Any mismatch leaves the tile off.
func probeLogisticTile() bool {
	if fuseExpMode != 1 || !vectorTilesSupported() {
		return false
	}
	const chunk = 256
	var margins, y, want, got [chunk]float64
	n, signs, ok := 0, 0, true
	flush := func() {
		k := n &^ 3
		sw := logisticGo(want[:k], margins[:k], y[:k], 0)
		done, sg := logisticTile4(got[:k], margins[:k], y[:k], 0)
		ok = ok && done == k && math.Float64bits(sg) == math.Float64bits(sw)
		for i := 0; ok && i < k; i++ {
			ok = math.Float64bits(got[i]) == math.Float64bits(want[i])
		}
		n = copy(margins[:], margins[k:n])
		copy(y[:], y[k:k+n])
	}
	add := func(a float64) {
		margins[n], y[n] = a, 1
		if signs&1 != 0 {
			margins[n] = -a
		}
		if signs&2 != 0 {
			y[n] = -1
		}
		signs++
		if n++; n == chunk {
			flush()
		}
	}
	for a := sigGateLo; a < logisticGateHi; a *= 1.004 {
		add(a)
	}
	for k := 1; float64(k)*math.Ln2 < logisticGateHi; k++ {
		c := float64(k) * math.Ln2
		add(math.Nextafter(c, 0))
		add(c)
		add(math.Nextafter(c, 1024))
	}
	add(sigGateLo)
	add(math.Nextafter(logisticGateHi, 0))
	a := -math.Log(0x1.a827999fcef32p-2) // e = √2−1
	for i := 0; i < 256; i++ {
		a = math.Nextafter(a, 0)
	}
	for i := 0; i < 512; i++ {
		add(a)
		a = math.Nextafter(a, 1)
	}
	flush()

	const evenE = 4096
	ones := [4]float64{1, 1, 1, 1}
	for i := 0; ok && i < evenE; i++ {
		a := -math.Log((float64(i) + 0.5) / evenE)
		if a < sigGateLo || a >= logisticGateHi {
			continue
		}
		copies := [4]float64{a, a, a, a}
		var d [4]float64
		done, sum := logisticTile4(d[:], copies[:], ones[:], 0)
		v, dv := LogisticValue(a, 1), LogisticDeriv(a, 1)
		ok = done == 4 && math.Float64bits(sum) == math.Float64bits(v+v+v+v) &&
			math.Float64bits(d[0]) == math.Float64bits(dv) && math.Float64bits(d[3]) == math.Float64bits(dv)
	}
	return ok
}

// logisticGateHi is the top of the vector tile's gate on |z|, whose bottom
// is exp8FMA's, sigGateLo: from 20 up e = exp(−|z|) could fall under 2⁻²⁹,
// where math.log1p leaves the general path the tile follows.
const logisticGateHi = 20.0
