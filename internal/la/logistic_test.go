package la

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// logisticEdgeMargins are the magnitudes where the kernel changes regime:
// zero, the exp gate's two ends, the old ±35 cut-offs, exp underflow, and
// the non-finite values.
var logisticEdgeMargins = []float64{0, 0x1p-30, 0x1p-28, 0x1p-27, 1, 35, 36.7, 699.9, 700, 745.2, 1e4,
	math.Inf(1), math.NaN()}

// logisticCases returns n margin/label pairs: every edge magnitude under both
// signs and both labels first (as far as n allows), then a wide random sweep.
func logisticCases(r *rand.Rand, n int) (margins, y []float64) {
	margins, y = make([]float64, 0, n), make([]float64, 0, n)
	for _, m := range logisticEdgeMargins {
		for _, sm := range []float64{1, -1} {
			for _, sy := range []float64{1, -1} {
				margins, y = append(margins, sm*m), append(y, sy)
			}
		}
	}
	for len(margins) < n {
		margins = append(margins, r.NormFloat64()*math.Exp(r.Float64()*12-6))
		y = append(y, float64(2*r.Intn(2)-1))
	}
	return margins[:n], y[:n]
}

func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// TestLogisticLossIntoMatchesScalar: the tile kernel is the scalar pair to
// the bit — derivs element by element, the sum as the same index-order
// addition — at every length around the 8-lane grouping, over the edge
// cases, and whichever way the exp probe went (mode 0 forces the scalar
// exponential everywhere).
func TestLogisticLossIntoMatchesScalar(t *testing.T) {
	t.Logf("fuseExpMode = %d", fuseExpMode)
	probed := fuseExpMode
	defer func() { fuseExpMode = probed }()
	r := rand.New(rand.NewSource(150))
	for _, mode := range []uint8{probed, 0} {
		fuseExpMode = mode
		for _, n := range []int{0, 1, 7, 8, 9, 52, 53, 4097} {
			margins, y := logisticCases(r, n)
			derivs := make([]float64, n)
			got := LogisticLossInto(derivs, margins, y)
			want := 0.0
			for i, m := range margins {
				want += LogisticValue(m, y[i])
				if d := LogisticDeriv(m, y[i]); !sameFloat(derivs[i], d) {
					t.Fatalf("mode %d n=%d: deriv(%g, %g) = %x, scalar %x", mode, n, m, y[i],
						math.Float64bits(derivs[i]), math.Float64bits(d))
				}
			}
			if !sameFloat(got, want) {
				t.Fatalf("mode %d n=%d: sum = %x, scalar sum %x", mode, n, math.Float64bits(got), math.Float64bits(want))
			}
			// derivs may alias margins.
			cp := append([]float64(nil), margins...)
			if s := LogisticLossInto(cp, cp, y); !sameFloat(s, got) || !bitsEqual(cp, derivs) {
				t.Fatalf("mode %d n=%d: in-place pass differs", mode, n)
			}
		}
	}
}

// TestLogisticScalarAccuracy pins the single-exponential form against a
// 256-bit reference for |z| ≤ 40 (value and derivative within 2 ulp), and
// beyond that against its own asymptote: the value decays as exp(−z) instead
// of being cut to 0 at 35, and nothing overflows.
func TestLogisticScalarAccuracy(t *testing.T) {
	ref := func(z float64) (value, sigNeg float64) { // log(1+e^−z), 1/(1+e^z)
		const prec = 256
		e := bigExp(new(big.Float).SetPrec(prec).SetFloat64(-z))
		one := new(big.Float).SetPrec(prec).SetInt64(1)
		onePlus := new(big.Float).SetPrec(prec).Add(one, e)
		s := new(big.Float).SetPrec(prec).Quo(e, onePlus)
		sigNeg, _ = s.Float64()
		value, _ = bigLog(onePlus).Float64()
		return value, sigNeg
	}
	ulps := func(got, want float64) float64 {
		if got == want {
			return 0
		}
		return math.Abs(got-want) / (math.Nextafter(math.Abs(want), math.Inf(1)) - math.Abs(want))
	}
	r := rand.New(rand.NewSource(151))
	zs := []float64{0, 0x1p-30, -0x1p-30, 1, -1, 35, -35, 35.0001, -35.0001, 36.7, -36.7, 40, -40}
	for i := 0; i < 2000; i++ {
		zs = append(zs, r.NormFloat64()*math.Exp(r.Float64()*8-4))
	}
	for _, z := range zs {
		if math.Abs(z) > 40 {
			continue
		}
		wantV, wantS := ref(z)
		if u := ulps(LogisticValue(z, 1), wantV); u > 2 {
			t.Errorf("LogisticValue(%g) = %g, reference %g (%.1f ulp)", z, LogisticValue(z, 1), wantV, u)
		}
		if u := ulps(LogisticDeriv(z, 1), -wantS); u > 2 {
			t.Errorf("LogisticDeriv(%g) = %g, reference %g (%.1f ulp)", z, LogisticDeriv(z, 1), -wantS, u)
		}
		// Label −1 mirrors the margin.
		if !sameFloat(LogisticValue(-z, -1), LogisticValue(z, 1)) || !sameFloat(LogisticDeriv(-z, -1), -LogisticDeriv(z, 1)) {
			t.Errorf("label symmetry broken at z=%g", z)
		}
	}
	for _, c := range []struct{ m, y, value, deriv float64 }{
		{100, 1, math.Exp(-100), -math.Exp(-100)}, {-100, 1, 100, -1}, {700, 1, math.Exp(-700), -math.Exp(-700)},
		{1e4, 1, 0, 0}, {-1e4, 1, 1e4, -1}, {1e4, -1, 1e4, 1},
		{math.Inf(1), 1, 0, 0}, {math.Inf(-1), 1, math.Inf(1), -1},
	} {
		if v, d := LogisticValue(c.m, c.y), LogisticDeriv(c.m, c.y); v != c.value || d != c.deriv {
			t.Errorf("logistic(%g, %g) = (%g, %g), want (%g, %g)", c.m, c.y, v, d, c.value, c.deriv)
		}
	}
	if v, d := LogisticValue(math.NaN(), 1), LogisticDeriv(math.NaN(), 1); !math.IsNaN(v) || !math.IsNaN(d) {
		t.Errorf("logistic(NaN) = (%g, %g), want NaN", v, d)
	}
}

// bigExp returns e^x by argument halving and a Taylor series.
func bigExp(x *big.Float) *big.Float {
	prec := x.Prec()
	halvings := 0
	y := new(big.Float).SetPrec(prec).Set(x)
	for y.Cmp(big.NewFloat(0.5)) > 0 || y.Cmp(big.NewFloat(-0.5)) < 0 {
		y.Quo(y, big.NewFloat(2))
		halvings++
	}
	sum := new(big.Float).SetPrec(prec).SetInt64(1)
	term := new(big.Float).SetPrec(prec).SetInt64(1)
	for k := int64(1); k < 80; k++ {
		term.Mul(term, y)
		term.Quo(term, new(big.Float).SetPrec(prec).SetInt64(k))
		sum.Add(sum, term)
	}
	for ; halvings > 0; halvings-- {
		sum.Mul(sum, sum)
	}
	return sum
}

// bigLog returns ln(x) by Halley's iteration on e^y = x from the float64
// estimate.
func bigLog(x *big.Float) *big.Float {
	prec := x.Prec()
	f, _ := x.Float64()
	y := new(big.Float).SetPrec(prec).SetFloat64(math.Log(f))
	for i := 0; i < 6; i++ {
		e := bigExp(y)
		// y += 2(x−e)/(x+e)
		num := new(big.Float).SetPrec(prec).Sub(x, e)
		den := new(big.Float).SetPrec(prec).Add(x, e)
		num.Quo(num, den)
		num.Mul(num, big.NewFloat(2))
		y.Add(y, num)
	}
	return y
}
