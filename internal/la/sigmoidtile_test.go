package la

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// sigmoidTileModes are the settings of sigmoidTileOn each check runs under:
// on where this machine runs the tile, whatever its own gate says, and off.
func sigmoidTileModes() []bool {
	if tileRunnable() {
		return []bool{true, false}
	}
	return []bool{false}
}

// withSigmoidTile runs f with the sigmoid tile on or off, restoring the
// setting.
func withSigmoidTile(on bool, f func()) {
	prev := sigmoidTileOn
	defer func() { sigmoidTileOn = prev }()
	sigmoidTileOn = on
	f()
}

// sigmoidEdges are the values at and around the tile's gate: ±0, 2⁻²⁸ and
// 700 with their neighbours on both sides, NaN, ±Inf and a subnormal, each
// under both signs.
var sigmoidEdges = func() []float64 {
	var out []float64
	for _, a := range []float64{0, math.Nextafter(sigGateLo, 0), sigGateLo, math.Nextafter(sigGateLo, 1),
		math.Nextafter(sigGateHi, 0), sigGateHi, math.Nextafter(sigGateHi, 1e4), math.Inf(1), 5e-324} {
		out = append(out, a, -a)
	}
	return append(out, math.NaN())
}()

// checkSigmoidMatchesScalar fails unless sigmoidTile is Sigmoid to the bit
// on x, any NaN matching any NaN: out of place and in place, with x starting
// at offset 0 and at offset 1 of its backing array.
func checkSigmoidMatchesScalar(t *testing.T, what string, x []float64) {
	t.Helper()
	want := make([]float64, len(x))
	for i, v := range x {
		want[i] = Sigmoid(v)
	}
	for off := 0; off < 2; off++ {
		src := append(make([]float64, off, off+len(x)), x...)[off:]
		dst := make([]float64, off+len(x))[off:]
		sigmoidTile(dst, src)
		sameFloats(t, fmt.Sprintf("%s n=%d offset %d", what, len(x), off), dst, want)
		sigmoidTile(src, src)
		sameFloats(t, fmt.Sprintf("%s n=%d offset %d in place", what, len(x), off), src, want)
	}
}

// sigmoidInGate returns n values whose magnitudes lie inside the gate, of
// both signs, log-uniform over [2⁻²⁸, 700).
func sigmoidInGate(r *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Exp2(-28 + r.Float64()*(28+math.Log2(sigGateHi)))
		if x[i] >= sigGateHi {
			x[i] = 1
		}
		if r.Intn(2) == 0 {
			x[i] = -x[i]
		}
	}
	return x
}

// TestSigmoidTileMatchesScalar: sigmoidTile with the vector tile on (where
// it runs) and off is the scalar Sigmoid to the bit at lengths 0–17 and
// 4097; with each gate edge in every lane of a group, so the tile hands the
// group back and resumes after it; across exp's reduction boundaries, where
// kd = log2e·x lies within a few ulps of a half-integer and one rounding
// more or less picks the other k; and through ScoreRowsInto, batch by batch
// against ScoreRow.
func TestSigmoidTileMatchesScalar(t *testing.T) {
	t.Logf("fuseExpMode = %d, sigmoidTileOn = %v", fuseExpMode, sigmoidTileOn)
	r := rand.New(rand.NewSource(47))
	var halves []float64
	for k := 0; (float64(k)+0.5)*math.Ln2 < sigGateHi; k++ {
		c := (float64(k) + 0.5) * math.Ln2
		for d := -8; d <= 8; d++ {
			a := math.Float64frombits(uint64(int64(math.Float64bits(c)) + int64(d)))
			halves = append(halves, a, -a)
		}
	}
	for _, on := range sigmoidTileModes() {
		withSigmoidTile(on, func() {
			what := fmt.Sprintf("tile %v", on)
			for n := 0; n <= 17; n++ {
				checkSigmoidMatchesScalar(t, what+" in gate", sigmoidInGate(r, n))
				mixed := sigmoidInGate(r, n)
				for i := range mixed {
					if r.Intn(3) == 0 {
						mixed[i] = sigmoidEdges[r.Intn(len(sigmoidEdges))]
					}
				}
				checkSigmoidMatchesScalar(t, what+" mixed", mixed)
			}
			checkSigmoidMatchesScalar(t, what+" in gate", sigmoidInGate(r, 4097))
			for _, e := range sigmoidEdges {
				for lane := 0; lane < 16; lane++ {
					x := sigmoidInGate(r, 17)
					x[lane] = e
					checkSigmoidMatchesScalar(t, fmt.Sprintf("%s %g in lane %d", what, e, lane), x)
				}
			}
			checkSigmoidMatchesScalar(t, what+" exp reduction boundaries", halves)

			for rows := 1; rows <= 9; rows++ {
				x := NewDense(rows, 5)
				for i := range x.data {
					x.data[i] = r.NormFloat64() * 4
				}
				w := []float64{1, -0.5, 2, 0.25, -1}
				dst := ScoreRowsInto(make([]float64, rows), x, w, 0.125, LinkLogistic)
				for i := range dst {
					if want := ScoreRow(x.RowView(i), w, 0.125, LinkLogistic); !sameFloat(dst[i], want) {
						t.Fatalf("%s: %d-row batch, row %d scores %x, ScoreRow %x", what, rows, i,
							math.Float64bits(dst[i]), math.Float64bits(want))
					}
				}
			}
		})
	}
}

// TestSigmoidTileGate: where the tile runs, it takes every group of four
// whose |m| all lie in [2⁻²⁸, 700), stops at the first group with a lane
// outside — at either end, NaN, ±Inf — and leaves a tail of fewer than four
// to sigmoidTile.
func TestSigmoidTileGate(t *testing.T) {
	if !tileRunnable() {
		t.Skip("this machine does not run the vector tile")
	}
	in := []float64{sigGateLo, -1, math.Nextafter(sigGateHi, 0), -math.Nextafter(sigGateHi, 0)}
	dst := make([]float64, 11)
	for _, bad := range []float64{math.Nextafter(sigGateLo, 0), 0, sigGateHi, -sigGateHi, math.NaN(), math.Inf(1), math.Inf(-1)} {
		for lane := 0; lane < 4; lane++ {
			x := append(append(append([]float64(nil), in...), in...), 2, 2, 2)
			x[4+lane] = bad
			if done := sigmoidTile4(dst, x); done != 4 {
				t.Errorf("%g in lane %d of group 1: tile took %d values, want 4", bad, lane, done)
			}
			x[4+lane] = in[lane]
			if done := sigmoidTile4(dst, x); done != 8 {
				t.Errorf("in-gate groups: tile took %d values, want 8", done)
			}
		}
	}
}

// FuzzSigmoidTile: for any float64 bits — NaN payloads, ±Inf, subnormals,
// the gate's edges — at lengths 0–37, sigmoidTile is Sigmoid to the bit.
// The first byte gives the length; the second's bit 0 turns the tile on
// (where it runs), bit 1 starts the values at offset 1 of their backing
// array, and bit 2 runs the pass in place. Eight bytes per value follow.
func FuzzSigmoidTile(f *testing.F) {
	seed := func(n, ctl byte, vals ...float64) []byte {
		b := []byte{n, ctl}
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(seed(0, 0))
	f.Add(seed(4, 1, 1, -2, 0.5, -700+1e-9))
	f.Add(seed(9, 3, 1, 2, 3, 4, -5, -6, -7, -8, 9))
	f.Add(seed(12, 5, 0.25, -0.25, 30, -30, sigGateLo, math.NaN(), 1, 2, 699.9, -699.9, 0x1p-20, 3))
	f.Add(seed(17, 7, 1, 2, 3, 4, 0, math.Copysign(0, -1), 5, 6, 7, 8, 9, 10, math.Inf(1), 11, 12, 13, 5e-324))
	f.Add(seed(37, 1, 1, -1, 2, -2, 3, -3, 4, -4, 5, -5, 6, -6, 7, -7, 8, -8, 700, -700, 9, -9, 10, -10,
		11, -11, 12, -12, 13, -13, 14, -14, 15, -15, 16, -16, 17, -17, 18))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n, ctl := int(data[0])%38, data[1]
		data = data[2:]
		off := int(ctl>>1) & 1
		x := make([]float64, off+n)[off:]
		want := make([]float64, n)
		for i := range x {
			var b [8]byte
			data = data[copy(b[:], data):]
			x[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
			want[i] = Sigmoid(x[i])
		}
		withSigmoidTile(ctl&1 != 0 && tileRunnable(), func() {
			dst := x
			if ctl&4 == 0 {
				dst = make([]float64, off+n)[off:]
			}
			sigmoidTile(dst, x)
			sameFloats(t, fmt.Sprintf("n=%d ctl=%#x", n, ctl), dst, want)
		})
	})
}
