package compress

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"dmml/internal/la"
)

// TestPageCodecRoundTrip checks that every encoding survives the page codec:
// encode to a flat float64 page, decode, and compare the decompressed matrix
// bit-for-bit against the original compressed form.
func TestPageCodecRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(90))
	m := mixedMatrix(r, 777) // odd row count exercises partial pack words
	for _, opts := range []Options{{}, {CoCode: true}, {force: forceDDC}, {force: forceOLE}, {force: forceRLE}, {force: forceUC}} {
		c := Compress(m, opts)
		page := make([]float64, EncodedLen(c))
		if err := EncodeInto(page, c); err != nil {
			t.Fatalf("opts %+v: %v", opts, err)
		}
		back, err := DecodePage(page)
		if err != nil {
			t.Fatalf("opts %+v: %v", opts, err)
		}
		if back.Rows() != c.Rows() || back.Cols() != c.Cols() {
			t.Fatalf("opts %+v: dims %dx%d, want %dx%d", opts, back.Rows(), back.Cols(), c.Rows(), c.Cols())
		}
		want, got := c.Decompress(), back.Decompress()
		for i := 0; i < m.Rows(); i++ {
			wr, gr := want.RowView(i), got.RowView(i)
			for j := range wr {
				if math.Float64bits(wr[j]) != math.Float64bits(gr[j]) {
					t.Fatalf("opts %+v: [%d,%d] = %v, want %v", opts, i, j, gr[j], wr[j])
				}
			}
		}
	}
}

// TestPageCodecOpsMatch checks the decoded form computes the same MatVec and
// VecMat as the original compressed matrix, so operate-over-compressed on a
// pool-resident page is exact.
func TestPageCodecOpsMatch(t *testing.T) {
	r := rand.New(rand.NewSource(91))
	m := mixedMatrix(r, 640)
	c := Compress(m, Options{CoCode: true})
	page := make([]float64, EncodedLen(c))
	if err := EncodeInto(page, c); err != nil {
		t.Fatal(err)
	}
	back, err := DecodePage(page)
	if err != nil {
		t.Fatal(err)
	}
	v := vecOf(r, m.Cols())
	x := vecOf(r, m.Rows())
	mv1, mv2 := c.MatVec(v), back.MatVec(v)
	for i := range mv1 {
		if mv1[i] != mv2[i] {
			t.Fatalf("MatVec[%d] = %v via page, want %v", i, mv2[i], mv1[i])
		}
	}
	vm1, vm2 := c.VecMat(x), back.VecMat(x)
	for j := range vm1 {
		if vm1[j] != vm2[j] {
			t.Fatalf("VecMat[%d] = %v via page, want %v", j, vm2[j], vm1[j])
		}
	}
}

// TestPageCodecSpillRoundTrip pushes an encoded page through the buffer
// pool's spill byte format (LittleEndian Float64bits) to prove packed code
// words — which are arbitrary bit patterns, including NaN-space values —
// survive disk round-trips unchanged.
func TestPageCodecSpillRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(92))
	m := mixedMatrix(r, 513)
	c := Compress(m, Options{})
	page := make([]float64, EncodedLen(c))
	if err := EncodeInto(page, c); err != nil {
		t.Fatal(err)
	}
	// Simulate storeLocked/loadLocked.
	bits := make([]uint64, len(page))
	for i, v := range page {
		bits[i] = math.Float64bits(v)
	}
	back := make([]float64, len(bits))
	for i, b := range bits {
		back[i] = math.Float64frombits(b)
	}
	dec, err := DecodePage(back)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Decompress().Equal(c.Decompress(), 0) {
		t.Fatal("page corrupted by spill-format round trip")
	}
}

func TestPageCodecErrors(t *testing.T) {
	r := rand.New(rand.NewSource(93))
	c := Compress(mixedMatrix(r, 64), Options{})
	page := make([]float64, EncodedLen(c))
	if err := EncodeInto(page[:len(page)-1], c); err == nil {
		t.Fatal("want error for short dst")
	}
	if err := EncodeInto(page, c); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodePage(page[:len(page)-1]); err == nil {
		t.Fatal("want error for truncated page")
	}
	bad := append([]float64(nil), page...)
	bad[0] = 12345 // wrong magic
	if _, err := DecodePage(bad); err == nil {
		t.Fatal("want error for bad magic")
	}
	if _, err := DecodePage([]float64{float64(pageMagic), 4, 4, 1, 99}); err == nil {
		t.Fatal("want error for unknown group kind")
	}
}

func TestEncodedLenTracksSize(t *testing.T) {
	// The page form should be close to SizeBytes (same dictionaries, packed
	// codes), far below the dense form for compressible data.
	rows := 4000
	m := la.NewDense(rows, 3)
	r := rand.New(rand.NewSource(94))
	for i := 0; i < rows; i++ {
		m.Set(i, 0, float64(r.Intn(4)))
		m.Set(i, 1, float64(r.Intn(8)))
		m.Set(i, 2, float64(r.Intn(2)))
	}
	c := Compress(m, Options{})
	pageBytes := 8 * EncodedLen(c)
	if dense := 8 * rows * 3; pageBytes*2 >= dense {
		t.Fatalf("page form %dB not <50%% of dense %dB for low-cardinality data", pageBytes, dense)
	}
}

func encodePage(tb testing.TB, c *Matrix) []float64 {
	tb.Helper()
	page := make([]float64, EncodedLen(c))
	if err := EncodeInto(page, c); err != nil {
		tb.Fatal(err)
	}
	return page
}

// TestDecodePageRejectsOversizedCounts: a count word larger than the page
// could hold fails to decode instead of sizing an allocation from it.
func TestDecodePageRejectsOversizedCounts(t *testing.T) {
	for name, page := range map[string][]float64{
		"group count":      {float64(pageMagic), 4, 1, 1e15},
		"dictionary width": {float64(pageMagic), 4, 1, 1, pkDDC1, 1e15},
		"dictionary size":  {float64(pageMagic), 4, 1, 1, pkDDC1, 1, 0, 1 << 52},
		"size × width":     {float64(pageMagic), 4, 2, 1, pkDDC1, 2, 0, 1, 1 << 62},
	} {
		if _, err := DecodePage(page); err == nil {
			t.Errorf("%s: DecodePage accepted %v", name, page)
		}
	}
}

// TestDecodePageRejectsUnsafePages: pages the kernels could index out of
// range with, or race on, fail to decode. Each is written by EncodeInto from
// a hand-built Matrix, which EncodeInto does not check.
func TestDecodePageRejectsUnsafePages(t *testing.T) {
	const rows = 20
	codes := func(bad, at int) []uint8 { // codes below 2, but bad at index at
		c := make([]uint8, rows)
		for i := range c {
			c[i] = uint8(i % 2)
		}
		if at >= 0 {
			c[at] = uint8(bad)
		}
		return c
	}
	wide := func(bad, at int) []uint16 { // codes below 300, but bad at index at
		c := make([]uint16, rows)
		for i := range c {
			c[i] = uint16(i * 15)
		}
		if at >= 0 {
			c[at] = uint16(bad)
		}
		return c
	}
	two := dict{cols: []int{0}, vals: []float64{1, 2}}
	many := dict{cols: []int{0}, vals: make([]float64, 300)}
	uc := func(col, n int) Group { return &UCGroup{col: col, data: make([]float64, n)} }
	one := func(g Group) *Matrix { return &Matrix{rows: rows, cols: 1, groups: []Group{g}} }
	valid := map[string]*Matrix{
		"DDC1":    one(&DDCGroup{d: two, codes8: codes(0, -1), rows: rows}),
		"DDC1 at": one(&DDCGroup{d: dict{cols: []int{0}, vals: make([]float64, 256)}, codes8: codes(255, 3), rows: rows}),
		"DDC2":    one(&DDCGroup{d: many, codes: wide(299, 17), rows: rows}),
		"OLE":     one(&OLEGroup{d: two, offsets: [][]int32{{0, 19}, {3}}, rows: rows}),
		"RLE":     one(&RLEGroup{d: two, runs: [][]int32{{0, 2, 5, 15}, {2, 3}}, rows: rows}),
		"UC":      one(uc(0, rows)),
	}
	for name, m := range valid {
		if _, err := DecodePage(encodePage(t, m)); err != nil {
			t.Errorf("%s: valid page rejected: %v", name, err)
		}
	}
	for name, m := range map[string]*Matrix{
		"DDC1 code ≥ size, full word":   one(&DDCGroup{d: two, codes8: codes(2, 3), rows: rows}),
		"DDC1 code ≥ size, last word":   one(&DDCGroup{d: two, codes8: codes(200, 17), rows: rows}),
		"DDC1 code ≥ size of 129":       one(&DDCGroup{d: dict{cols: []int{0}, vals: make([]float64, 129)}, codes8: codes(130, 5), rows: rows}),
		"DDC1 empty dictionary":         one(&DDCGroup{d: dict{cols: []int{0}}, codes8: codes(0, -1), rows: rows}),
		"DDC2 code ≥ size, full word":   one(&DDCGroup{d: many, codes: wide(300, 1), rows: rows}),
		"DDC2 code ≥ size, last word":   one(&DDCGroup{d: many, codes: wide(65535, 19), rows: rows}),
		"DDC rows ≠ page rows":          one(&DDCGroup{d: two, codes8: codes(0, -1)[:rows-1], rows: rows - 1}),
		"OLE offsets unsorted":          one(&OLEGroup{d: two, offsets: [][]int32{{4, 3}, nil}, rows: rows}),
		"OLE offset repeated":           one(&OLEGroup{d: two, offsets: [][]int32{{4, 4}, nil}, rows: rows}),
		"OLE offset ≥ rows":             one(&OLEGroup{d: two, offsets: [][]int32{nil, {rows}}, rows: rows}),
		"OLE offset < 0":                one(&OLEGroup{d: two, offsets: [][]int32{{-1}, nil}, rows: rows}),
		"OLE rows ≠ page rows":          one(&OLEGroup{d: two, offsets: [][]int32{nil, nil}, rows: rows + 1}),
		"RLE runs overlap":              one(&RLEGroup{d: two, runs: [][]int32{{0, 5, 4, 2}, nil}, rows: rows}),
		"RLE runs unsorted":             one(&RLEGroup{d: two, runs: [][]int32{{8, 2, 0, 2}, nil}, rows: rows}),
		"RLE run empty":                 one(&RLEGroup{d: two, runs: [][]int32{{3, 0}, nil}, rows: rows}),
		"RLE run past rows":             one(&RLEGroup{d: two, runs: [][]int32{nil, {18, 3}}, rows: rows}),
		"RLE run list odd":              one(&RLEGroup{d: two, runs: [][]int32{{3}, nil}, rows: rows}),
		"UC length ≠ page rows":         one(uc(0, rows-1)),
		"column ≥ cols":                 one(uc(1, rows)),
		"column in two groups":          {rows: rows, cols: 2, groups: []Group{uc(0, rows), uc(0, rows)}},
		"column in no group":            {rows: rows, cols: 2, groups: []Group{uc(1, rows)}},
		"column twice in one group":     {rows: rows, cols: 2, groups: []Group{&DDCGroup{d: dict{cols: []int{1, 1}, vals: []float64{1, 2}}, codes8: codes(0, -1), rows: rows}}},
		"empty matrix":                  {rows: 0, cols: 1, groups: []Group{uc(0, 0)}},
		"no columns":                    {rows: rows, cols: 0},
		"DDC1 code ≥ size, second word": one(&DDCGroup{d: two, codes8: codes(9, 8), rows: rows}),
	} {
		if got, err := DecodePage(encodePage(t, m)); err == nil {
			t.Errorf("%s: DecodePage accepted the page: %v", name, got.GroupInfo())
		}
	}
}

// FuzzDecodePage: DecodePage reads spill pages back from disk, so any input
// must decode to an error or a Matrix, never a panic, and what decodes must
// re-encode to a page that decodes and re-encodes unchanged. Every kernel
// must then run on the decoded Matrix without a panic — MatVecInto,
// VecMatAccum, LossGradAccum and DecompressInto — MatVecInto cut into one-
// and three-row ranges must give the bits of the whole-matrix call, and
// LossGradAccum's margins and derivatives must be those of MatVecInto and
// the logistic tile. The seeds
// are EncodeInto pages covering every group kind, each checked first to
// decode back to the matrix that was encoded, and a co-coded block of the
// out-of-core workload's columns as ooc's builder pages it.
func FuzzDecodePage(f *testing.F) {
	r := rand.New(rand.NewSource(95))
	// Small pages keep the fuzzer's minimization of new inputs short.
	m := mixedMatrix(r, 21)
	wide := la.NewDense(257, 1) // 257 distinct values: two-byte DDC codes
	for i := 0; i < 257; i++ {
		wide.Set(i, 0, float64(i))
	}
	// 96 rows keep the block under the size the kernels run at.
	block := blockMatrix(r, 96)
	kinds := map[int]bool{}
	for _, seed := range []struct {
		m    *la.Dense
		opts Options
	}{
		{m, Options{}}, {m, Options{CoCode: true}}, {m, Options{force: forceDDC}}, {wide, Options{force: forceDDC}},
		{m, Options{force: forceOLE}}, {m, Options{force: forceRLE}}, {m, Options{force: forceUC}},
		{block, Options{CoCode: true}},
	} {
		c := Compress(seed.m, seed.opts)
		if seed.m == block && len(c.Groups()) == block.Cols() {
			f.Fatal("the out-of-core block seed is not co-coded")
		}
		for _, g := range c.Groups() {
			switch g := g.(type) {
			case *DDCGroup:
				kinds[map[bool]int{true: pkDDC1, false: pkDDC2}[g.codes8 != nil]] = true
			case *OLEGroup:
				kinds[pkOLE] = true
			case *RLEGroup:
				kinds[pkRLE] = true
			case *UCGroup:
				kinds[pkUC] = true
			}
		}
		page := encodePage(f, c)
		back, err := DecodePage(page)
		if err != nil {
			f.Fatalf("opts %+v: %v", seed.opts, err)
		}
		if !back.Decompress().Equal(seed.m, 0) {
			f.Fatalf("opts %+v: page does not decode back to the encoded matrix", seed.opts)
		}
		b := make([]byte, 8*len(page))
		for i, v := range page {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
		}
		f.Add(b)
	}
	if len(kinds) != 5 {
		f.Fatalf("seeds cover page kinds %v, want all five", kinds)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		page := make([]float64, len(b)/8)
		for i := range page {
			page[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
		m, err := DecodePage(page)
		if err != nil {
			return
		}
		again := encodePage(t, m)
		m2, err := DecodePage(again)
		if err != nil {
			t.Fatalf("re-encoded page does not decode: %v", err)
		}
		third := encodePage(t, m2)
		if len(third) != len(again) {
			t.Fatalf("re-encoding changed the page length: %d, then %d", len(again), len(third))
		}
		for i := range third {
			if math.Float64bits(third[i]) != math.Float64bits(again[i]) {
				t.Fatalf("re-encoding changed word %d: %x, then %x", i, math.Float64bits(again[i]), math.Float64bits(third[i]))
			}
		}
		// A page may claim far more rows than it stores (an OLE or RLE
		// group lists only its non-zero rows); the dense operands of such a
		// shape are not worth allocating here.
		if m.Rows() > 1<<12 || m.Rows()*m.Cols() > 1<<16 {
			return
		}
		v := make([]float64, m.Cols())
		for j := range v {
			v[j] = 1 / float64(j+1)
		}
		x := make([]float64, m.Rows())
		for i := range x {
			x[i] = float64(i%7) - 3
		}
		mv := m.MatVec(v)
		for _, span := range []int{1, 3} {
			got := matVecSpans(m, v, span)
			for i := range mv {
				if math.Float64bits(got[i]) != math.Float64bits(mv[i]) {
					t.Fatalf("MatVecInto in %d-row ranges: [%d] = %x, whole %x", span, i, math.Float64bits(got[i]), math.Float64bits(mv[i]))
				}
			}
		}
		m.VecMatAccum(make([]float64, m.Cols()), x)
		y := make([]float64, m.Rows())
		for i := range y {
			y[i] = float64(2*(i%2) - 1)
		}
		wantDerivs := make([]float64, m.Rows())
		la.LogisticLossInto(wantDerivs, mv, y)
		margins, derivs := make([]float64, m.Rows()), make([]float64, m.Rows())
		m.LossGradAccum(make([]float64, m.Cols()), margins, derivs, v, y, la.LogisticLossInto)
		for i := range mv {
			if math.Float64bits(margins[i]) != math.Float64bits(mv[i]) || math.Float64bits(derivs[i]) != math.Float64bits(wantDerivs[i]) {
				t.Fatalf("LossGradAccum row %d: margin %x, deriv %x; want %x, %x", i,
					math.Float64bits(margins[i]), math.Float64bits(derivs[i]), math.Float64bits(mv[i]), math.Float64bits(wantDerivs[i]))
			}
		}
		m.Decompress()
	})
}
