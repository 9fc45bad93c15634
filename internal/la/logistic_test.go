package la

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// logisticEdgeMargins are the magnitudes where the kernel changes regime:
// zero, the exp gate's two ends, the vector tile's upper gate end, the
// margin where e = exp(−|z|) crosses √2−1 (log1p's branch point), the old
// ±35 cut-offs, exp underflow, and the non-finite values.
var logisticEdgeMargins = []float64{0, 0x1p-30, 0x1p-28, 0x1p-27, 0.881373587019543, 1,
	math.Nextafter(logisticGateHi, 0), logisticGateHi, 35, 36.7, 699.9, 700, 745.2, 1e4,
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

// checkLogisticMatchesScalar fails unless LogisticLossInto is the scalar
// pair to the bit — derivs element by element, the sum as the same
// index-order addition — both into a fresh derivs and in place over a copy
// of margins.
func checkLogisticMatchesScalar(t *testing.T, what string, margins, y []float64) {
	t.Helper()
	n := len(margins)
	derivs := make([]float64, n)
	got := LogisticLossInto(derivs, margins, y)
	want := 0.0
	for i, m := range margins {
		want += LogisticValue(m, y[i])
		if d := LogisticDeriv(m, y[i]); !sameFloat(derivs[i], d) {
			t.Fatalf("%s n=%d: deriv(%g, %g) = %x, scalar %x", what, n, m, y[i],
				math.Float64bits(derivs[i]), math.Float64bits(d))
		}
	}
	if !sameFloat(got, want) {
		t.Fatalf("%s n=%d: sum = %x, scalar sum %x", what, n, math.Float64bits(got), math.Float64bits(want))
	}
	// derivs may alias margins.
	cp := append([]float64(nil), margins...)
	if s := LogisticLossInto(cp, cp, y); !sameFloat(s, got) || !bitsEqual(cp, derivs) {
		t.Fatalf("%s n=%d: in-place pass differs", what, n)
	}
}

// tileRunnable reports whether this machine runs the vector tile: the CPU
// has it and exp8FMA, its exponential, is certified. Tests force the tile on
// wherever it runs, whatever its own probe decided, so a tile the probe
// rejected fails them by its bits.
func tileRunnable() bool { return fuseExpMode == 1 && vectorTilesSupported() }

// TestLogisticTileProbe: wherever the vector tile runs, the init probe finds
// it bit-equal to the Go path and turns it on.
func TestLogisticTileProbe(t *testing.T) {
	if tileRunnable() && !logisticTileOn {
		t.Fatal("the init probe rejected the vector tile: it differs from the Go path")
	}
	if !tileRunnable() && (logisticTileOn || probeLogisticTile()) {
		t.Fatal("the vector tile is on where it cannot run")
	}
}

// TestLogisticLossIntoMatchesScalar: the batched pass is the scalar pair to
// the bit at every length around the 4-row tile and the 8-lane grouping,
// over the edge cases, with the vector tile on (where it runs) and off, and
// whichever way the exp probe went (mode 0 forces the scalar exponential in
// Go).
func TestLogisticLossIntoMatchesScalar(t *testing.T) {
	t.Logf("fuseExpMode = %d, logisticTileOn = %v", fuseExpMode, logisticTileOn)
	probed, tile := fuseExpMode, logisticTileOn
	defer func() { fuseExpMode, logisticTileOn = probed, tile }()
	runnable := tileRunnable()
	r := rand.New(rand.NewSource(150))
	for _, mode := range []uint8{probed, 0} {
		for _, on := range []bool{runnable, false} {
			fuseExpMode, logisticTileOn = mode, on
			what := fmt.Sprintf("mode %d tile %v", mode, on)
			for _, n := range []int{0, 1, 3, 4, 5, 7, 8, 9, 52, 53, 63, 64, 65, 4097} {
				margins, y := logisticCases(r, n+4*len(logisticEdgeMargins))
				checkLogisticMatchesScalar(t, what+" edges first", margins[:n], y[:n])
				// Random rows alone, so whole groups fall inside the
				// tile's gate at every length.
				margins, y = margins[len(margins)-n:], y[len(y)-n:]
				checkLogisticMatchesScalar(t, what+" random", margins, y)
			}
		}
	}
}

// TestLogisticTileGate: where the vector tile is on, it takes every group
// of four whose |z| all lie in [2⁻²⁸, 20), stops at the first that does not
// — a lane at either end outside, NaN, ±Inf — and leaves a tail of fewer
// than four rows to Go.
func TestLogisticTileGate(t *testing.T) {
	if !tileRunnable() {
		t.Skip("this machine does not run the vector tile")
	}
	in := []float64{sigGateLo, 1, math.Nextafter(logisticGateHi, 0), -3}
	for _, c := range []struct {
		name string
		bad  float64
	}{
		{"below 2⁻²⁸", math.Nextafter(sigGateLo, 0)},
		{"zero", 0},
		{"20", logisticGateHi},
		{"-20", -logisticGateHi},
		{"NaN", math.NaN()},
		{"+Inf", math.Inf(1)},
		{"-Inf", math.Inf(-1)},
	} {
		for lane := 0; lane < 4; lane++ {
			margins := append(append([]float64(nil), in...), in...)
			margins = append(margins, 2, 2, 2) // a three-row tail
			margins[4+lane] = c.bad
			y := []float64{1, -1, 1, -1, -1, 1, -1, 1, 1, 1, 1}
			derivs := make([]float64, len(margins))
			if done, _ := logisticTile4(derivs, margins, y, 0); done != 4 {
				t.Errorf("%s in lane %d of group 1: tile took %d rows, want 4", c.name, lane, done)
			}
			margins[4+lane] = in[lane]
			if done, _ := logisticTile4(derivs, margins, y, 0); done != 8 {
				t.Errorf("in-gate groups: tile took %d rows, want 8", done)
			}
		}
	}
}

// TestLogisticTilePerRow: where the tile runs, each of 2²⁰ rows — e =
// exp(−|z|) evenly spaced in (0, 1), under the four sign combinations of
// margin and label in turn — run as a group of four copies from a zero
// total is the scalar pair to the bit: the deriv, and the value through the
// group's sum v+v+v+v, where none of its bits is lost as in a long sum. A
// quarter of the rows then run as one batch, every group inside the gate,
// whose running sum must add the lanes in index order.
func TestLogisticTilePerRow(t *testing.T) {
	if !tileRunnable() {
		t.Skip("this machine does not run the vector tile")
	}
	tile := logisticTileOn
	defer func() { logisticTileOn = tile }()
	logisticTileOn = true
	const n = 1 << 20
	bad := 0
	var batchM, batchY []float64
	for i := 0; i < n; i++ {
		a := -math.Log((float64(i) + 0.5) / n)
		if a < sigGateLo || a >= logisticGateHi {
			continue
		}
		m, label := a, 1.0
		if i&1 != 0 {
			m = -a
		}
		if i&2 != 0 {
			label = -1
		}
		margins, y := [4]float64{m, m, m, m}, [4]float64{label, label, label, label}
		var derivs [4]float64
		done, sum := logisticTile4(derivs[:], margins[:], y[:], 0)
		v, d := LogisticValue(m, label), LogisticDeriv(m, label)
		if done != 4 || !sameFloat(sum, v+v+v+v) || !sameFloat(derivs[0], d) || !sameFloat(derivs[3], d) {
			if bad++; bad <= 5 {
				t.Errorf("m=%v y=%v: tile took %d rows, sum %x deriv %x; scalar sum %x deriv %x", m, label, done,
					math.Float64bits(sum), math.Float64bits(derivs[0]), math.Float64bits(v+v+v+v), math.Float64bits(d))
			}
		}
		if i>>2&3 == 0 {
			batchM, batchY = append(batchM, m), append(batchY, label)
		}
	}
	if bad > 0 {
		t.Errorf("%d of %d rows differ from the scalar pair", bad, n)
	}
	checkLogisticMatchesScalar(t, "in-gate batch", batchM, batchY)
}

// FuzzLogisticLossInto: for any margins and labels — edge magnitudes, ±Inf,
// NaN, subnormals, margins around the tile's gate and log1p's branch point —
// at lengths 0–17, around the grouping by four and by eight, the batched
// pass is the scalar pair to the bit with the vector tile on (where it
// runs) and off, derivs aliasing margins included. Each row takes nine bytes: a control
// byte (its low two bits pick how the margin is read from the next eight,
// bit 2 flips the margin's sign, bit 3 the label's, and bit 4 gives the
// label a magnitude other than 1).
func FuzzLogisticLossInto(f *testing.F) {
	row := func(ctl byte, v uint64) []byte {
		return binary.LittleEndian.AppendUint64([]byte{ctl}, v)
	}
	seed := func(n byte, rows ...[]byte) []byte {
		b := []byte{n}
		for _, r := range rows {
			b = append(b, r...)
		}
		return b
	}
	f.Add(seed(0))
	f.Add(seed(1, row(2, 30000)))
	f.Add(seed(4, row(2, 40000), row(2|4, 41000), row(2|8, 42000), row(2|4|8, 43000)))
	f.Add(seed(8, row(3, 0), row(3, 1), row(3, 255), row(3, 128), row(3|4, 3), row(3|8, 7), row(2, 50000), row(2, 60000)))
	f.Add(seed(9, row(1, 0), row(1, 2), row(1, 5), row(1, 6), row(1, 7), row(1|4, 14), row(1, 15), row(0, 1), row(2, 33000)))
	f.Add(seed(17, row(2, 1), row(2, 9000), row(2, 18000), row(2, 27000), row(2, 36000), row(2, 45000),
		row(2, 54000), row(2, 63000), row(2|16, 100), row(0, math.Float64bits(math.NaN())),
		row(0, math.Float64bits(math.Inf(-1))), row(0, 1), row(2, 64000), row(2, 65535), row(3|4, 200), row(2, 20000), row(2, 20001)))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := int(data[0]) % 18
		data = data[1:]
		margins, y := make([]float64, n), make([]float64, n)
		for i := range margins {
			var r [9]byte
			data = data[copy(r[:], data):]
			ctl, v := r[0], binary.LittleEndian.Uint64(r[1:])
			var a float64
			switch ctl & 3 {
			case 0: // any float64, NaN, ±Inf and subnormals included
				a = math.Float64frombits(v)
			case 1: // an edge magnitude
				a = logisticEdgeMargins[v%uint64(len(logisticEdgeMargins))]
			case 2: // log-uniform over [2⁻³⁰, 2⁶): both ends of the tile's gate
				a = math.Exp2(float64(v&0xffff)/65536*36 - 30)
			case 3: // within 128 ulps of the margin where e crosses √2−1
				a = math.Float64frombits(math.Float64bits(0.881373587019543) + uint64(int64(int8(v))))
			}
			if ctl&4 != 0 {
				a = -a
			}
			y[i] = 1
			if ctl&16 != 0 {
				y[i] += float64(v>>56) / 256
			}
			if ctl&8 != 0 {
				y[i] = -y[i]
			}
			margins[i] = a
		}
		tile := logisticTileOn
		defer func() { logisticTileOn = tile }()
		for _, on := range []bool{tileRunnable(), false} {
			logisticTileOn = on
			checkLogisticMatchesScalar(t, fmt.Sprintf("tile %v", on), margins, y)
		}
	})
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
