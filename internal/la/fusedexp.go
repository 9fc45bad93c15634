package la

import "math"

// Tile-vectorized sigmoid for the fused kernels, the serving link and the
// logistic loss pass.
//
// The scalar Sigmoid costs one math.Exp call per element — on amd64 an
// assembly routine (SLEEF / Shibata reduction) that the Go compiler cannot
// inline or pipeline across loop iterations. Two tile paths replace that
// loop with the *same* algorithm. Where the CPU runs AVX2 and FMA,
// sigmoidTile4 (logistic_amd64.s) takes groups of four on the vector unit,
// exp8FMA's sequence lane for lane, sharing one copy of it with the logistic
// tile. Elsewhere sigmoidGo runs an 8-lane software-pipelined Go port, so
// eight exponentials are in flight at once through the long FMA/divide
// dependency chains. Eight is deliberate: the polynomial is a serial chain
// of ~4-cycle FMAs on hardware that retires two FMAs per cycle, so fewer
// than eight independent chains leave the FMA ports idle, and more than
// eight overflows the reorder window (one 8-lane group is already ~240
// uops).
//
// Bit-exactness is load-bearing, not best-effort: fused≡unfused is a tested
// invariant, so the vector lanes must reproduce math.Exp exactly.
// Two ports cover the two variants the assembly selects between at runtime:
// exp8FMA uses math.FMA (exactly rounded everywhere, hardware or soft) and
// matches the FMA path; exp8NoFMA uses plain ops and matches the pre-FMA
// path. A package-init probe bit-compares both against math.Exp across the
// sigmoid gate range and selects whichever matches; on platforms where
// neither does (e.g. a different arch-specific Exp), sigmoidTile falls back
// to the scalar loop — slower, never wrong. The AVX2 tile runs only where
// the probe chose exp8FMA, and needs no probe of its own: it does exp8FMA's
// and sigLane's IEEE operations in their order.
//
// The fast lanes are gated to |m| ∈ [2^-28, 700): arguments whose exp is
// normal, finite, and away from the overflow/denormal tails — exactly the
// range the probe certifies. Out-of-gate lanes (including NaN/Inf) take
// the scalar Sigmoid.

const (
	expLog2E = 1.4426950408889634073599246810018920                  // 1/ln(2)
	expLN2U  = 0.69314718055966295651160180568695068359375           // ln(2) upper half
	expLN2L  = 0.28235290563031577122588448175013436025525412068e-12 // ln(2) lower half

	// Round-to-nearest-even via the add-magic-subtract trick: adding
	// 1.5·2^52 forces the fraction out of the significand, matching the
	// assembly's CVTSD2SL for the argument range the gate admits.
	expRound = 0x1.8p52

	sigGateLo = 0x1p-28 // below this |m|, go scalar (probe range floor)
	sigGateHi = 700.0   // at or above this |m|, go scalar (overflow/denormal tails)
)

// fuseExpMode selects the sigmoid fast path: 0 scalar-only, 1 exp8FMA,
// 2 exp8NoFMA. Decided once at init by bit-comparison against math.Exp.
var fuseExpMode = probeExpMode()

// exp8FMA evaluates math.Exp on eight lanes, matching the FMA variant of
// the amd64 assembly bit for bit (math.FMA is exactly rounded on every
// platform, so the port is deterministic even without FMA hardware).
// Valid only for arguments inside the sigmoid gate.
//
//dmml:noalloc
func exp8FMA(x0, x1, x2, x3, x4, x5, x6, x7 float64) (float64, float64, float64, float64, float64, float64, float64, float64) {
	kd0 := expLog2E*x0 + expRound
	kd1 := expLog2E*x1 + expRound
	kd2 := expLog2E*x2 + expRound
	kd3 := expLog2E*x3 + expRound
	kd4 := expLog2E*x4 + expRound
	kd5 := expLog2E*x5 + expRound
	kd6 := expLog2E*x6 + expRound
	kd7 := expLog2E*x7 + expRound
	k0 := int64(math.Float64bits(kd0)) - 0x4338000000000000
	k1 := int64(math.Float64bits(kd1)) - 0x4338000000000000
	k2 := int64(math.Float64bits(kd2)) - 0x4338000000000000
	k3 := int64(math.Float64bits(kd3)) - 0x4338000000000000
	k4 := int64(math.Float64bits(kd4)) - 0x4338000000000000
	k5 := int64(math.Float64bits(kd5)) - 0x4338000000000000
	k6 := int64(math.Float64bits(kd6)) - 0x4338000000000000
	k7 := int64(math.Float64bits(kd7)) - 0x4338000000000000
	kd0 -= expRound
	kd1 -= expRound
	kd2 -= expRound
	kd3 -= expRound
	kd4 -= expRound
	kd5 -= expRound
	kd6 -= expRound
	kd7 -= expRound
	u0 := math.FMA(-kd0, expLN2U, x0)
	u1 := math.FMA(-kd1, expLN2U, x1)
	u2 := math.FMA(-kd2, expLN2U, x2)
	u3 := math.FMA(-kd3, expLN2U, x3)
	u4 := math.FMA(-kd4, expLN2U, x4)
	u5 := math.FMA(-kd5, expLN2U, x5)
	u6 := math.FMA(-kd6, expLN2U, x6)
	u7 := math.FMA(-kd7, expLN2U, x7)
	u0 = math.FMA(-kd0, expLN2L, u0)
	u1 = math.FMA(-kd1, expLN2L, u1)
	u2 = math.FMA(-kd2, expLN2L, u2)
	u3 = math.FMA(-kd3, expLN2L, u3)
	u4 = math.FMA(-kd4, expLN2L, u4)
	u5 = math.FMA(-kd5, expLN2L, u5)
	u6 = math.FMA(-kd6, expLN2L, u6)
	u7 = math.FMA(-kd7, expLN2L, u7)
	u0 *= 0.0625
	u1 *= 0.0625
	u2 *= 0.0625
	u3 *= 0.0625
	u4 *= 0.0625
	u5 *= 0.0625
	u6 *= 0.0625
	u7 *= 0.0625
	h0 := math.FMA(2.4801587301587301587e-5, u0, 1.9841269841269841270e-4)
	h1 := math.FMA(2.4801587301587301587e-5, u1, 1.9841269841269841270e-4)
	h2 := math.FMA(2.4801587301587301587e-5, u2, 1.9841269841269841270e-4)
	h3 := math.FMA(2.4801587301587301587e-5, u3, 1.9841269841269841270e-4)
	h4 := math.FMA(2.4801587301587301587e-5, u4, 1.9841269841269841270e-4)
	h5 := math.FMA(2.4801587301587301587e-5, u5, 1.9841269841269841270e-4)
	h6 := math.FMA(2.4801587301587301587e-5, u6, 1.9841269841269841270e-4)
	h7 := math.FMA(2.4801587301587301587e-5, u7, 1.9841269841269841270e-4)
	h0 = math.FMA(h0, u0, 1.3888888888888888889e-3)
	h1 = math.FMA(h1, u1, 1.3888888888888888889e-3)
	h2 = math.FMA(h2, u2, 1.3888888888888888889e-3)
	h3 = math.FMA(h3, u3, 1.3888888888888888889e-3)
	h4 = math.FMA(h4, u4, 1.3888888888888888889e-3)
	h5 = math.FMA(h5, u5, 1.3888888888888888889e-3)
	h6 = math.FMA(h6, u6, 1.3888888888888888889e-3)
	h7 = math.FMA(h7, u7, 1.3888888888888888889e-3)
	h0 = math.FMA(h0, u0, 8.3333333333333333333e-3)
	h1 = math.FMA(h1, u1, 8.3333333333333333333e-3)
	h2 = math.FMA(h2, u2, 8.3333333333333333333e-3)
	h3 = math.FMA(h3, u3, 8.3333333333333333333e-3)
	h4 = math.FMA(h4, u4, 8.3333333333333333333e-3)
	h5 = math.FMA(h5, u5, 8.3333333333333333333e-3)
	h6 = math.FMA(h6, u6, 8.3333333333333333333e-3)
	h7 = math.FMA(h7, u7, 8.3333333333333333333e-3)
	h0 = math.FMA(h0, u0, 4.1666666666666666667e-2)
	h1 = math.FMA(h1, u1, 4.1666666666666666667e-2)
	h2 = math.FMA(h2, u2, 4.1666666666666666667e-2)
	h3 = math.FMA(h3, u3, 4.1666666666666666667e-2)
	h4 = math.FMA(h4, u4, 4.1666666666666666667e-2)
	h5 = math.FMA(h5, u5, 4.1666666666666666667e-2)
	h6 = math.FMA(h6, u6, 4.1666666666666666667e-2)
	h7 = math.FMA(h7, u7, 4.1666666666666666667e-2)
	h0 = math.FMA(h0, u0, 1.6666666666666666667e-1)
	h1 = math.FMA(h1, u1, 1.6666666666666666667e-1)
	h2 = math.FMA(h2, u2, 1.6666666666666666667e-1)
	h3 = math.FMA(h3, u3, 1.6666666666666666667e-1)
	h4 = math.FMA(h4, u4, 1.6666666666666666667e-1)
	h5 = math.FMA(h5, u5, 1.6666666666666666667e-1)
	h6 = math.FMA(h6, u6, 1.6666666666666666667e-1)
	h7 = math.FMA(h7, u7, 1.6666666666666666667e-1)
	h0 = math.FMA(h0, u0, 0.5)
	h1 = math.FMA(h1, u1, 0.5)
	h2 = math.FMA(h2, u2, 0.5)
	h3 = math.FMA(h3, u3, 0.5)
	h4 = math.FMA(h4, u4, 0.5)
	h5 = math.FMA(h5, u5, 0.5)
	h6 = math.FMA(h6, u6, 0.5)
	h7 = math.FMA(h7, u7, 0.5)
	h0 = math.FMA(h0, u0, 1.0)
	h1 = math.FMA(h1, u1, 1.0)
	h2 = math.FMA(h2, u2, 1.0)
	h3 = math.FMA(h3, u3, 1.0)
	h4 = math.FMA(h4, u4, 1.0)
	h5 = math.FMA(h5, u5, 1.0)
	h6 = math.FMA(h6, u6, 1.0)
	h7 = math.FMA(h7, u7, 1.0)
	s0 := u0 * h0
	s1 := u1 * h1
	s2 := u2 * h2
	s3 := u3 * h3
	s4 := u4 * h4
	s5 := u5 * h5
	s6 := u6 * h6
	s7 := u7 * h7
	s0 = s0 * (s0 + 2)
	s1 = s1 * (s1 + 2)
	s2 = s2 * (s2 + 2)
	s3 = s3 * (s3 + 2)
	s4 = s4 * (s4 + 2)
	s5 = s5 * (s5 + 2)
	s6 = s6 * (s6 + 2)
	s7 = s7 * (s7 + 2)
	s0 = s0 * (s0 + 2)
	s1 = s1 * (s1 + 2)
	s2 = s2 * (s2 + 2)
	s3 = s3 * (s3 + 2)
	s4 = s4 * (s4 + 2)
	s5 = s5 * (s5 + 2)
	s6 = s6 * (s6 + 2)
	s7 = s7 * (s7 + 2)
	s0 = s0 * (s0 + 2)
	s1 = s1 * (s1 + 2)
	s2 = s2 * (s2 + 2)
	s3 = s3 * (s3 + 2)
	s4 = s4 * (s4 + 2)
	s5 = s5 * (s5 + 2)
	s6 = s6 * (s6 + 2)
	s7 = s7 * (s7 + 2)
	s0 = math.FMA(s0, s0+2, 1)
	s1 = math.FMA(s1, s1+2, 1)
	s2 = math.FMA(s2, s2+2, 1)
	s3 = math.FMA(s3, s3+2, 1)
	s4 = math.FMA(s4, s4+2, 1)
	s5 = math.FMA(s5, s5+2, 1)
	s6 = math.FMA(s6, s6+2, 1)
	s7 = math.FMA(s7, s7+2, 1)
	s0 *= math.Float64frombits(uint64(k0+0x3FF) << 52)
	s1 *= math.Float64frombits(uint64(k1+0x3FF) << 52)
	s2 *= math.Float64frombits(uint64(k2+0x3FF) << 52)
	s3 *= math.Float64frombits(uint64(k3+0x3FF) << 52)
	s4 *= math.Float64frombits(uint64(k4+0x3FF) << 52)
	s5 *= math.Float64frombits(uint64(k5+0x3FF) << 52)
	s6 *= math.Float64frombits(uint64(k6+0x3FF) << 52)
	s7 *= math.Float64frombits(uint64(k7+0x3FF) << 52)
	return s0, s1, s2, s3, s4, s5, s6, s7
}

// exp8NoFMA is the plain-operation twin of exp8FMA.
//
//dmml:noalloc
func exp8NoFMA(x0, x1, x2, x3, x4, x5, x6, x7 float64) (float64, float64, float64, float64, float64, float64, float64, float64) {
	kd0 := expLog2E*x0 + expRound
	kd1 := expLog2E*x1 + expRound
	kd2 := expLog2E*x2 + expRound
	kd3 := expLog2E*x3 + expRound
	kd4 := expLog2E*x4 + expRound
	kd5 := expLog2E*x5 + expRound
	kd6 := expLog2E*x6 + expRound
	kd7 := expLog2E*x7 + expRound
	k0 := int64(math.Float64bits(kd0)) - 0x4338000000000000
	k1 := int64(math.Float64bits(kd1)) - 0x4338000000000000
	k2 := int64(math.Float64bits(kd2)) - 0x4338000000000000
	k3 := int64(math.Float64bits(kd3)) - 0x4338000000000000
	k4 := int64(math.Float64bits(kd4)) - 0x4338000000000000
	k5 := int64(math.Float64bits(kd5)) - 0x4338000000000000
	k6 := int64(math.Float64bits(kd6)) - 0x4338000000000000
	k7 := int64(math.Float64bits(kd7)) - 0x4338000000000000
	kd0 -= expRound
	kd1 -= expRound
	kd2 -= expRound
	kd3 -= expRound
	kd4 -= expRound
	kd5 -= expRound
	kd6 -= expRound
	kd7 -= expRound
	u0 := x0 - kd0*expLN2U
	u1 := x1 - kd1*expLN2U
	u2 := x2 - kd2*expLN2U
	u3 := x3 - kd3*expLN2U
	u4 := x4 - kd4*expLN2U
	u5 := x5 - kd5*expLN2U
	u6 := x6 - kd6*expLN2U
	u7 := x7 - kd7*expLN2U
	u0 -= kd0 * expLN2L
	u1 -= kd1 * expLN2L
	u2 -= kd2 * expLN2L
	u3 -= kd3 * expLN2L
	u4 -= kd4 * expLN2L
	u5 -= kd5 * expLN2L
	u6 -= kd6 * expLN2L
	u7 -= kd7 * expLN2L
	u0 *= 0.0625
	u1 *= 0.0625
	u2 *= 0.0625
	u3 *= 0.0625
	u4 *= 0.0625
	u5 *= 0.0625
	u6 *= 0.0625
	u7 *= 0.0625
	h0 := 2.4801587301587301587e-5 * u0
	h1 := 2.4801587301587301587e-5 * u1
	h2 := 2.4801587301587301587e-5 * u2
	h3 := 2.4801587301587301587e-5 * u3
	h4 := 2.4801587301587301587e-5 * u4
	h5 := 2.4801587301587301587e-5 * u5
	h6 := 2.4801587301587301587e-5 * u6
	h7 := 2.4801587301587301587e-5 * u7
	h0 += 1.9841269841269841270e-4
	h1 += 1.9841269841269841270e-4
	h2 += 1.9841269841269841270e-4
	h3 += 1.9841269841269841270e-4
	h4 += 1.9841269841269841270e-4
	h5 += 1.9841269841269841270e-4
	h6 += 1.9841269841269841270e-4
	h7 += 1.9841269841269841270e-4
	h0 = h0*u0 + 1.3888888888888888889e-3
	h1 = h1*u1 + 1.3888888888888888889e-3
	h2 = h2*u2 + 1.3888888888888888889e-3
	h3 = h3*u3 + 1.3888888888888888889e-3
	h4 = h4*u4 + 1.3888888888888888889e-3
	h5 = h5*u5 + 1.3888888888888888889e-3
	h6 = h6*u6 + 1.3888888888888888889e-3
	h7 = h7*u7 + 1.3888888888888888889e-3
	h0 = h0*u0 + 8.3333333333333333333e-3
	h1 = h1*u1 + 8.3333333333333333333e-3
	h2 = h2*u2 + 8.3333333333333333333e-3
	h3 = h3*u3 + 8.3333333333333333333e-3
	h4 = h4*u4 + 8.3333333333333333333e-3
	h5 = h5*u5 + 8.3333333333333333333e-3
	h6 = h6*u6 + 8.3333333333333333333e-3
	h7 = h7*u7 + 8.3333333333333333333e-3
	h0 = h0*u0 + 4.1666666666666666667e-2
	h1 = h1*u1 + 4.1666666666666666667e-2
	h2 = h2*u2 + 4.1666666666666666667e-2
	h3 = h3*u3 + 4.1666666666666666667e-2
	h4 = h4*u4 + 4.1666666666666666667e-2
	h5 = h5*u5 + 4.1666666666666666667e-2
	h6 = h6*u6 + 4.1666666666666666667e-2
	h7 = h7*u7 + 4.1666666666666666667e-2
	h0 = h0*u0 + 1.6666666666666666667e-1
	h1 = h1*u1 + 1.6666666666666666667e-1
	h2 = h2*u2 + 1.6666666666666666667e-1
	h3 = h3*u3 + 1.6666666666666666667e-1
	h4 = h4*u4 + 1.6666666666666666667e-1
	h5 = h5*u5 + 1.6666666666666666667e-1
	h6 = h6*u6 + 1.6666666666666666667e-1
	h7 = h7*u7 + 1.6666666666666666667e-1
	h0 = h0*u0 + 0.5
	h1 = h1*u1 + 0.5
	h2 = h2*u2 + 0.5
	h3 = h3*u3 + 0.5
	h4 = h4*u4 + 0.5
	h5 = h5*u5 + 0.5
	h6 = h6*u6 + 0.5
	h7 = h7*u7 + 0.5
	h0 = h0*u0 + 1.0
	h1 = h1*u1 + 1.0
	h2 = h2*u2 + 1.0
	h3 = h3*u3 + 1.0
	h4 = h4*u4 + 1.0
	h5 = h5*u5 + 1.0
	h6 = h6*u6 + 1.0
	h7 = h7*u7 + 1.0
	s0 := u0 * h0
	s1 := u1 * h1
	s2 := u2 * h2
	s3 := u3 * h3
	s4 := u4 * h4
	s5 := u5 * h5
	s6 := u6 * h6
	s7 := u7 * h7
	s0 = s0 * (s0 + 2)
	s1 = s1 * (s1 + 2)
	s2 = s2 * (s2 + 2)
	s3 = s3 * (s3 + 2)
	s4 = s4 * (s4 + 2)
	s5 = s5 * (s5 + 2)
	s6 = s6 * (s6 + 2)
	s7 = s7 * (s7 + 2)
	s0 = s0 * (s0 + 2)
	s1 = s1 * (s1 + 2)
	s2 = s2 * (s2 + 2)
	s3 = s3 * (s3 + 2)
	s4 = s4 * (s4 + 2)
	s5 = s5 * (s5 + 2)
	s6 = s6 * (s6 + 2)
	s7 = s7 * (s7 + 2)
	s0 = s0 * (s0 + 2)
	s1 = s1 * (s1 + 2)
	s2 = s2 * (s2 + 2)
	s3 = s3 * (s3 + 2)
	s4 = s4 * (s4 + 2)
	s5 = s5 * (s5 + 2)
	s6 = s6 * (s6 + 2)
	s7 = s7 * (s7 + 2)
	s0 = s0 * (s0 + 2)
	s1 = s1 * (s1 + 2)
	s2 = s2 * (s2 + 2)
	s3 = s3 * (s3 + 2)
	s4 = s4 * (s4 + 2)
	s5 = s5 * (s5 + 2)
	s6 = s6 * (s6 + 2)
	s7 = s7 * (s7 + 2)
	s0++
	s1++
	s2++
	s3++
	s4++
	s5++
	s6++
	s7++
	s0 *= math.Float64frombits(uint64(k0+0x3FF) << 52)
	s1 *= math.Float64frombits(uint64(k1+0x3FF) << 52)
	s2 *= math.Float64frombits(uint64(k2+0x3FF) << 52)
	s3 *= math.Float64frombits(uint64(k3+0x3FF) << 52)
	s4 *= math.Float64frombits(uint64(k4+0x3FF) << 52)
	s5 *= math.Float64frombits(uint64(k5+0x3FF) << 52)
	s6 *= math.Float64frombits(uint64(k6+0x3FF) << 52)
	s7 *= math.Float64frombits(uint64(k7+0x3FF) << 52)
	return s0, s1, s2, s3, s4, s5, s6, s7
}

// probeExpMode certifies the vector lanes against math.Exp over the gate
// range: a multiplicative sweep of magnitudes plus the k·ln2 reduction
// boundaries where rounding of the exponent estimate flips. Any single bit
// of disagreement disqualifies a variant.
func probeExpMode() uint8 {
	okFMA, okPlain := true, true
	check := func(x float64) {
		want := math.Float64bits(math.Exp(x))
		if okFMA {
			a, b, c, d, e, f, g, h := exp8FMA(x, x, x, x, x, x, x, x)
			for _, got := range [8]float64{a, b, c, d, e, f, g, h} {
				if math.Float64bits(got) != want {
					okFMA = false
					break
				}
			}
		}
		if okPlain {
			a, b, c, d, e, f, g, h := exp8NoFMA(x, x, x, x, x, x, x, x)
			for _, got := range [8]float64{a, b, c, d, e, f, g, h} {
				if math.Float64bits(got) != want {
					okPlain = false
					break
				}
			}
		}
	}
	for m := sigGateLo; m < sigGateHi; m *= 1.001 {
		check(-m)
		if !okFMA && !okPlain {
			return 0
		}
	}
	for k := 1; k <= 1010; k++ {
		c := float64(k) * math.Ln2
		if c >= sigGateHi {
			break
		}
		check(-math.Nextafter(c, 0))
		check(-c)
		check(-math.Nextafter(c, 1024))
	}
	switch {
	case okFMA:
		return 1
	case okPlain:
		return 2
	default:
		return 0
	}
}

// sigLane finishes one in-gate sigmoid lane from m and e = exp(-|m|),
// branch-free: the numerator is 1 for m ≥ 0 and e for m < 0, selected by
// broadcasting m's sign bit. Matches Sigmoid's two branches exactly.
//
//dmml:noalloc
func sigLane(m, e float64) float64 {
	mask := signMask(m)
	num := math.Float64frombits(math.Float64bits(e)&mask | 0x3FF0000000000000&^mask)
	return num / (1 + e)
}

// sigmoidTileOn selects the vector tile for sigmoidTile: the CPU runs it and
// the probe certified exp8FMA, whose sequence the tile runs lane for lane.
// Tests turn it off to compare both paths.
var sigmoidTileOn = fuseExpMode == 1 && vectorTilesSupported()

// sigmoidTile applies the numerically stable sigmoid over a tile,
// bit-identical to Sigmoid per element. Where the vector tile is on, groups
// of four whose |m| all lie in the gate run on it; a group that leaves the
// gate takes the scalar Sigmoid and the tile resumes after it, and the tail
// of fewer than four runs in Go (sigmoidGo). dst may alias x.
//
//dmml:noalloc
func sigmoidTile(dst, x []float64) {
	n := len(dst)
	x = x[:n]
	i := 0
	if sigmoidTileOn {
		for {
			if i += sigmoidTile4(dst[i:], x[i:]); n-i < 4 {
				break
			}
			// The group at i left the gate.
			dst[i] = Sigmoid(x[i])
			dst[i+1] = Sigmoid(x[i+1])
			dst[i+2] = Sigmoid(x[i+2])
			dst[i+3] = Sigmoid(x[i+3])
			i += 4
		}
	}
	sigmoidGo(dst[i:], x[i:])
}

// sigmoidGo is sigmoidTile in Go. In-gate groups of eight run through the
// certified 8-lane exponential; anything else — probe failed, tiny or huge
// magnitudes, NaN/Inf, the tail — takes the scalar Sigmoid.
//
//dmml:noalloc
func sigmoidGo(dst, x []float64) {
	mode := fuseExpMode
	x = x[:len(dst)]
	n8 := len(dst) &^ 7
	if mode == 0 {
		n8 = 0 // no certified lanes: the scalar loop takes every element
	}
	i := 0
	for ; i < n8; i += 8 {
		m0, m1, m2, m3 := x[i], x[i+1], x[i+2], x[i+3]
		m4, m5, m6, m7 := x[i+4], x[i+5], x[i+6], x[i+7]
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
			dst[i] = sigLane(m0, e0)
			dst[i+1] = sigLane(m1, e1)
			dst[i+2] = sigLane(m2, e2)
			dst[i+3] = sigLane(m3, e3)
			dst[i+4] = sigLane(m4, e4)
			dst[i+5] = sigLane(m5, e5)
			dst[i+6] = sigLane(m6, e6)
			dst[i+7] = sigLane(m7, e7)
		} else {
			dst[i] = Sigmoid(m0)
			dst[i+1] = Sigmoid(m1)
			dst[i+2] = Sigmoid(m2)
			dst[i+3] = Sigmoid(m3)
			dst[i+4] = Sigmoid(m4)
			dst[i+5] = Sigmoid(m5)
			dst[i+6] = Sigmoid(m6)
			dst[i+7] = Sigmoid(m7)
		}
	}
	for ; i < len(dst); i++ {
		dst[i] = Sigmoid(x[i])
	}
}
