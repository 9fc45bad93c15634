package la

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// withDenseTile runs f with the dense tiles on or off, restoring the setting.
func withDenseTile(on bool, f func()) {
	prev := denseTileOn
	defer func() { denseTileOn = prev }()
	denseTileOn = on
	f()
}

// denseTileModes are the tile settings each check runs under: on where this
// CPU runs the tiles, whatever denseTileOn says, and off.
func denseTileModes() []bool {
	if vectorTilesSupported() {
		return []bool{true, false}
	}
	return []bool{false}
}

// sameFloats fails unless got and want agree bit for bit, any NaN matching
// any NaN: Go fixes no NaN payload, and which operand's payload a NaN sum
// keeps depends on the operand order the compiler picks.
func sameFloats(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if !sameFloat(got[i], want[i]) {
			t.Fatalf("%s: [%d] = %v (%#x), want %v (%#x)", what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// denseSpecials are the values the tiles must carry exactly: signed zeros,
// NaN, infinities, subnormals and magnitudes whose products overflow or
// underflow.
var denseSpecials = []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
	5e-324, -2.5e-310, 1e308, -1e308, 1e-200, -1e-200}

// denseTileCase fills a rows×cols matrix, a weight per row, a vector per
// column and an accumulator start for one data mode:
//
//	0 normals;
//	1 normals with zeros in every pair and quad position: row i, column a is
//	  zero where bit i mod 4 of (a + i/4) mod 16 is set, and the row weights
//	  cycle pairs through (x, x), (0, x), (x, 0), (0, 0), (−0, x), (x, −0);
//	2 mode 1 with every ninth value (on average) a special;
//	3 mode 1 over ±1e-200, so products underflow to signed zeros, with the
//	  accumulator −0: a zero weight that reached a sum would flip its sign.
func denseTileCase(r *rand.Rand, mode, rows, cols int) (m *Dense, w, v, acc []float64) {
	m = &Dense{rows: rows, cols: cols, data: make([]float64, rows*cols)}
	w, v, acc = make([]float64, rows), make([]float64, cols), make([]float64, cols*cols)
	val := func() float64 {
		switch {
		case mode == 3:
			return math.Copysign(1e-200, r.NormFloat64())
		case mode == 2 && r.Intn(9) == 0:
			return denseSpecials[r.Intn(len(denseSpecials))]
		}
		return r.NormFloat64()
	}
	for i := 0; i < rows; i++ {
		for a := 0; a < cols; a++ {
			if mode > 0 && (a+i/4)%16>>(i%4)&1 != 0 {
				continue
			}
			m.data[i*cols+a] = val()
		}
	}
	pairs := [6][2]float64{{1, 1}, {0, 1}, {1, 0}, {0, 0}, {math.Copysign(0, -1), 1}, {1, math.Copysign(0, -1)}}
	for i := range w {
		w[i] = val()
		if mode > 0 && i/2%8 < len(pairs) {
			w[i] *= pairs[i/2%8][i%2]
		}
	}
	for j := range v {
		v[j] = val()
	}
	for j := range acc {
		acc[j] = val()
		if mode == 3 {
			acc[j] = math.Copysign(0, -1)
		}
	}
	return m, w, v, acc
}

// checkDenseTiles runs matVecRows, vecMatAccum and gramAccum over rows
// [r0, rows) of m with each tile setting and compares each with its Go loop
// (the tile off), and matVecRows also with Dot row by row.
func checkDenseTiles(t *testing.T, what string, m *Dense, w, v, acc []float64, r0 int) {
	t.Helper()
	rows, cols := m.rows, m.cols
	var mvWant, vmWant, gramWant []float64
	withDenseTile(false, func() {
		mvWant = make([]float64, rows-r0)
		matVecRows(mvWant, m, v, r0, rows)
		vmWant = append([]float64(nil), acc[:cols]...)
		vecMatAccum(vmWant, w[r0:], m, r0, rows)
		gramWant = append([]float64(nil), acc...)
		gramAccum(m, gramWant, r0, rows)
	})
	for i := r0; i < rows; i++ {
		if d := Dot(m.data[i*cols:(i+1)*cols], v); !sameFloat(mvWant[i-r0], d) {
			t.Fatalf("%s: Go matVecRows row %d = %#x, Dot %#x", what, i, math.Float64bits(mvWant[i-r0]), math.Float64bits(d))
		}
	}
	for _, on := range denseTileModes() {
		withDenseTile(on, func() {
			tag := fmt.Sprintf("%s tile %v", what, on)
			mv := make([]float64, rows-r0)
			matVecRows(mv, m, v, r0, rows)
			sameFloats(t, tag+" matVecRows", mv, mvWant)
			vm := append([]float64(nil), acc[:cols]...)
			vecMatAccum(vm, w[r0:], m, r0, rows)
			sameFloats(t, tag+" vecMatAccum", vm, vmWant)
			gram := append([]float64(nil), acc...)
			gramAccum(m, gram, r0, rows)
			sameFloats(t, tag+" gramAccum", gram, gramWant)
		})
	}
}

// TestDenseTilesMatchScalar: with the dense tiles forced on (where the CPU
// runs them) and off, matVecRows, vecMatAccum and gramAccum are their Go
// loops to the bit — matVecRows also Dot's — at every width around the
// four-column vectors, the narrow Gram's limit and the wide path, at row
// counts around the four-row and two-row sweeps, from row 0 and row 1, over
// zeros in every pair and quad position, ±0, NaN, ±Inf, subnormals and
// underflowing products; and the public entry points built on them agree
// with either setting at this GOMAXPROCS, over the pool's gate.
func TestDenseTilesMatchScalar(t *testing.T) {
	r := rand.New(rand.NewSource(45))
	colsSet := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 31, 32, 33, 63, 64, 65, 100}
	for _, cols := range colsSet {
		for _, rows := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 4097} {
			for mode := 0; mode < 4; mode++ {
				m, w, v, acc := denseTileCase(r, mode, rows, cols)
				what := fmt.Sprintf("%dx%d mode %d", rows, cols, mode)
				checkDenseTiles(t, what, m, w, v, acc, 0)
				if rows > 0 {
					checkDenseTiles(t, what+" from row 1", m, w, v, acc, 1)
				}
			}
		}
	}

	// The entry points, over the pool's gate (rows·cols ≥ 2¹⁷) and on its
	// multi-chunk grid; make test-cpu runs this at GOMAXPROCS 1, 2 and 4.
	const rows = 4097
	f, g, _ := rowPrograms(t)
	for _, cols := range []int{33, 64} {
		multiChunk(t, rows, cols)
		for mode := 0; mode < 4; mode++ {
			m, w, v, _ := denseTileCase(r, mode, rows, cols)
			fx := newRowFixture(r, rows, cols)
			fx.x, fx.u = m, v
			fc := RowCell{Prog: f, Ins: []FusedInput{{}, ScalarInput(1.5)}, Slot: 0}
			gc := RowCell{Prog: g, Ins: []FusedInput{DenseInput(fx.y), {}, DenseInput(fx.mask)}, Slot: 1}
			type result struct{ mv, vm, gram, row, rowV []float64 }
			run := func() result {
				var res result
				res.mv = MatVecInto(make([]float64, rows), m, v)
				res.vm = VecMatInto(make([]float64, cols), w, m)
				res.gram = GramInto(NewDense(cols, cols), m).data
				res.rowV = make([]float64, rows)
				res.row = FusedRowInto(make([]float64, cols), res.rowV, m, v, fc, gc)
				return res
			}
			var want result
			withDenseTile(false, func() { want = run() })
			for _, on := range denseTileModes() {
				withDenseTile(on, func() {
					got := run()
					tag := fmt.Sprintf("%dx%d mode %d tile %v", rows, cols, mode, on)
					sameFloats(t, tag+" MatVecInto", got.mv, want.mv)
					sameFloats(t, tag+" VecMatInto", got.vm, want.vm)
					sameFloats(t, tag+" GramInto", got.gram, want.gram)
					sameFloats(t, tag+" FusedRowInto v", got.rowV, want.rowV)
					sameFloats(t, tag+" FusedRowInto", got.row, want.row)
				})
			}
		}
	}
}

// FuzzDenseTiles: for any values — raw bits, so every NaN, infinity,
// subnormal and signed zero — at 0–17 rows by 1–70 columns, matVecRows,
// vecMatAccum and gramAccum with the dense tiles on (where the CPU runs
// them) and off are their Go loops to the bit, from row 0 and row 1. The
// first two bytes give the shape; every value after them takes eight bytes
// (the matrix row-major, then the row weights, the vector and the
// accumulator), and a short input leaves the rest zero.
func FuzzDenseTiles(f *testing.F) {
	seed := func(rows, cols byte, vals ...float64) []byte {
		b := []byte{rows, cols}
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(seed(0, 1))
	f.Add(seed(4, 4, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 1, -1, 2, -2, 0.5, 0.25, 0.125, 2))
	f.Add(seed(5, 5, 1, 0, 3, math.Inf(1), 5, 0, 7, 8, math.NaN(), 10, 11, 12, 0, 14, 15, 16, 17, 5e-324, 19, 20,
		21, 22, 23, 24, 25, 0, 1, 0, 1, math.Copysign(0, -1)))
	f.Add(seed(9, 33, 1e-200, -1e-200, 1e308, -1e308, 3, 0, math.Copysign(0, -1), 1))
	f.Add(seed(17, 70))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		rows, cols := int(data[0])%18, 1+int(data[1])%70
		data = data[2:]
		next := func() float64 {
			var b [8]byte
			data = data[copy(b[:], data):]
			return math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
		}
		m := &Dense{rows: rows, cols: cols, data: make([]float64, rows*cols)}
		w, v, acc := make([]float64, rows), make([]float64, cols), make([]float64, cols*cols)
		for _, s := range [][]float64{m.data, w, v, acc} {
			for i := range s {
				s[i] = next()
			}
		}
		what := fmt.Sprintf("%dx%d", rows, cols)
		checkDenseTiles(t, what, m, w, v, acc, 0)
		if rows > 0 {
			checkDenseTiles(t, what+" from row 1", m, w, v, acc, 1)
		}
	})
}
