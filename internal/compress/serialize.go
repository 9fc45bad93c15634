package compress

import (
	"fmt"
	"unsafe"
)

// Page codec: serialize a compressed Matrix into a flat []float64 so it can
// live in a storage.BufferPool page (the pool's unit of residency and spill).
// Every word is one float64; integers are stored as exact small floats and
// narrow payloads (DDC codes, OLE offsets, RLE runs) are stored through a
// byte view of their words, in the host's native order, so DecodePage can
// hand them out as typed views of the page instead of unpacking them. A
// spill file holds the page's memory bytes verbatim, and pages and their
// spill files never leave the process that wrote them, so the native order
// is the only order a page is ever read in. DecodePage
// returns a Matrix that aliases the page slice throughout (zero copy) — the
// caller must keep the page pinned for the lifetime of the decoded Matrix.

// Group kind tags in the page encoding.
const (
	pkDDC1 = 0
	pkDDC2 = 1
	pkOLE  = 2
	pkRLE  = 3
	pkUC   = 4
)

// pageMagic guards against decoding a page that is not a compressed block
// (e.g. a raw dense page handed to the wrong decoder).
const pageMagic = 0x434c4131 // "CLA1"

// EncodedLen returns the exact number of float64 words EncodeInto will write
// for m, so callers can pin a pool page of that size first.
func EncodedLen(m *Matrix) int {
	n := 4 // magic, rows, cols, numGroups
	for _, g := range m.groups {
		n += encodedGroupLen(g)
	}
	return n
}

func encodedGroupLen(g Group) int {
	switch g := g.(type) {
	case *DDCGroup:
		n := 2 + dictLen(&g.d) // kind, dict, rows
		if g.codes8 != nil {
			n += (len(g.codes8) + 7) / 8
		} else {
			n += (len(g.codes) + 3) / 4
		}
		return n
	case *OLEGroup:
		n := 2 + dictLen(&g.d) // kind, rows
		for _, offs := range g.offsets {
			n += 1 + (len(offs)+1)/2
		}
		return n
	case *RLEGroup:
		n := 2 + dictLen(&g.d)
		for _, rs := range g.runs {
			n += 1 + (len(rs)+1)/2
		}
		return n
	case *UCGroup:
		return 3 + len(g.data) // kind, col, n, data
	default:
		panic(fmt.Sprintf("compress: EncodedLen: unknown group type %T", g))
	}
}

func dictLen(d *dict) int {
	return 2 + len(d.cols) + len(d.vals) // w, cols, ne, vals (ne folded into w word pair)
}

// EncodeInto serializes m into dst, which must be exactly EncodedLen(m) words.
func EncodeInto(dst []float64, m *Matrix) error {
	if len(dst) != EncodedLen(m) {
		return fmt.Errorf("compress: EncodeInto dst len %d, want %d", len(dst), EncodedLen(m))
	}
	w := &pageWriter{buf: dst}
	w.putInt(pageMagic)
	w.putInt(m.rows)
	w.putInt(m.cols)
	w.putInt(len(m.groups))
	for _, g := range m.groups {
		switch g := g.(type) {
		case *DDCGroup:
			if g.codes8 != nil {
				w.putInt(pkDDC1)
				w.putDict(&g.d)
				w.putInt(g.rows)
				putPacked(w, g.codes8)
			} else {
				w.putInt(pkDDC2)
				w.putDict(&g.d)
				w.putInt(g.rows)
				putPacked(w, g.codes)
			}
		case *OLEGroup:
			w.putInt(pkOLE)
			w.putDict(&g.d)
			w.putInt(g.rows)
			for _, offs := range g.offsets {
				w.putInt(len(offs))
				putPacked(w, offs)
			}
		case *RLEGroup:
			w.putInt(pkRLE)
			w.putDict(&g.d)
			w.putInt(g.rows)
			for _, rs := range g.runs {
				w.putInt(len(rs))
				putPacked(w, rs)
			}
		case *UCGroup:
			w.putInt(pkUC)
			w.putInt(g.cols[0])
			w.putInt(len(g.data))
			w.putFloats(g.data)
		default:
			return fmt.Errorf("compress: EncodeInto: unknown group type %T", g)
		}
	}
	if w.off != len(dst) {
		return fmt.Errorf("compress: EncodeInto wrote %d words, want %d", w.off, len(dst))
	}
	return nil
}

// DecodePage reconstructs a Matrix from a page written by EncodeInto. The
// returned Matrix aliases data — dictionary values, DDC codes, OLE offsets,
// RLE runs and UC columns are all views of the page — so keep the backing
// page pinned while the Matrix is in use; its allocations do not grow with
// the page's rows. A page read back from spill is untrusted, so DecodePage
// checks everything the kernels index by before returning: the matrix is
// not empty, every group and UC column has the page's row count, every DDC
// code is below its dictionary's size (tested eight one-byte or four
// two-byte codes per word), OLE offsets are strictly increasing and RLE runs
// non-empty, sorted and disjoint, all inside [0, rows), and the groups cover
// each of the page's columns exactly once. A page that fails any check is
// an error, never a Matrix the kernels could index out of range or race on.
func DecodePage(data []float64) (*Matrix, error) {
	r := &pageReader{buf: data}
	magic, err := r.int()
	if err != nil {
		return nil, err
	}
	if magic != pageMagic {
		return nil, fmt.Errorf("compress: DecodePage: bad magic %#x", magic)
	}
	m := &Matrix{}
	if m.rows, err = r.int(); err != nil {
		return nil, err
	}
	if m.cols, err = r.int(); err != nil {
		return nil, err
	}
	if m.rows == 0 || m.cols == 0 {
		// Compress never makes one: an la.Dense has positive dimensions.
		return nil, fmt.Errorf("compress: DecodePage: empty %dx%d matrix", m.rows, m.cols)
	}
	ng, err := r.count(1)
	if err != nil {
		return nil, err
	}
	m.groups = make([]Group, 0, ng)
	r.groups = ng
	for gi := 0; gi < ng; gi++ {
		g, err := r.group(gi, m.rows)
		if err != nil {
			return nil, err
		}
		m.groups = append(m.groups, g)
	}
	if r.off != len(data) {
		return nil, fmt.Errorf("compress: DecodePage: %d trailing words", len(data)-r.off)
	}
	if err := m.checkCover(); err != nil {
		return nil, err
	}
	return m, nil
}

// group decodes group gi of a page with the given row count.
func (r *pageReader) group(gi, rows int) (Group, error) {
	kind, err := r.int()
	if err != nil {
		return nil, err
	}
	if kind == pkUC {
		col, err := r.int()
		if err != nil {
			return nil, err
		}
		n, err := r.int()
		if err != nil {
			return nil, err
		}
		if n != rows {
			return nil, fmt.Errorf("compress: DecodePage: group %d: UC column of %d rows in a %d-row page", gi, n, rows)
		}
		vals, err := r.floats(n)
		if err != nil {
			return nil, err
		}
		if r.ucs == nil {
			// One allocation for every UC group the page has left, so a
			// page of many UC columns decodes in a few allocations.
			r.ucs = make([]UCGroup, 0, r.groups-gi)
		}
		r.ucs = append(r.ucs, UCGroup{cols: [1]int{col}, data: vals})
		return &r.ucs[len(r.ucs)-1], nil
	}
	if kind > pkRLE {
		return nil, fmt.Errorf("compress: DecodePage: group %d has unknown kind %d", gi, kind)
	}
	d, err := r.dict()
	if err != nil {
		return nil, err
	}
	n, err := r.int()
	if err != nil {
		return nil, err
	}
	if n != rows {
		return nil, fmt.Errorf("compress: DecodePage: group %d has %d rows in a %d-row page", gi, n, rows)
	}
	ne := d.numEntries()
	switch kind {
	case pkDDC1:
		ws, err := r.floats((rows + 7) / 8)
		if err != nil {
			return nil, err
		}
		codes := wordView[uint8](ws, rows)
		if !lanesBelow(ws[:rows/8], 8, ne) || !codesBelow(codes[rows/8*8:], ne) {
			return nil, fmt.Errorf("compress: DecodePage: group %d has a DDC code at or beyond its %d-entry dictionary", gi, ne)
		}
		return &DDCGroup{d: d, codes8: codes, rows: rows}, nil
	case pkDDC2:
		ws, err := r.floats((rows + 3) / 4)
		if err != nil {
			return nil, err
		}
		codes := wordView[uint16](ws, rows)
		if !lanesBelow(ws[:rows/4], 16, ne) || !codesBelow(codes[rows/4*4:], ne) {
			return nil, fmt.Errorf("compress: DecodePage: group %d has a DDC code at or beyond its %d-entry dictionary", gi, ne)
		}
		return &DDCGroup{d: d, codes: codes, rows: rows}, nil
	}
	lists := make([][]int32, ne)
	for t := range lists {
		n, err := r.int()
		if err != nil {
			return nil, err
		}
		ws, err := r.floats((n + 1) / 2)
		if err != nil {
			return nil, err
		}
		lists[t] = wordView[int32](ws, n)
		if kind == pkOLE && !offsetsValid(lists[t], rows) {
			return nil, fmt.Errorf("compress: DecodePage: group %d entry %d: OLE offsets not increasing inside [0, %d)", gi, t, rows)
		}
		if kind == pkRLE && !runsValid(lists[t], rows) {
			return nil, fmt.Errorf("compress: DecodePage: group %d entry %d: RLE runs not non-empty, sorted and disjoint inside [0, %d)", gi, t, rows)
		}
	}
	if kind == pkOLE {
		return &OLEGroup{d: d, offsets: lists, rows: rows}, nil
	}
	return &RLEGroup{d: d, runs: lists, rows: rows}, nil
}

// checkCover checks that the groups cover each of the matrix's columns
// exactly once: the kernels index by column, and VecMatAccum's concurrent
// groups must write disjoint entries.
func (m *Matrix) checkCover() error {
	n := 0
	for _, g := range m.groups {
		n += len(g.Cols())
	}
	if n != m.cols {
		return fmt.Errorf("compress: DecodePage: groups cover %d columns of a %d-column page", n, m.cols)
	}
	seen := make([]uint64, (m.cols+63)/64)
	for gi, g := range m.groups {
		for _, j := range g.Cols() {
			if j >= m.cols {
				return fmt.Errorf("compress: DecodePage: group %d has column %d of a %d-column page", gi, j, m.cols)
			}
			if seen[j/64]&(1<<(j%64)) != 0 {
				return fmt.Errorf("compress: DecodePage: column %d is in two groups", j)
			}
			seen[j/64] |= 1 << (j % 64)
		}
	}
	return nil
}

// wordView is the first n elements of the words' bytes, in memory order, as
// a T slice; its capacity ends with the words, so appending to it cannot
// write past them. Word alignment covers every T. An empty view is non-nil,
// which is what marks a DDC1 group.
func wordView[T uint8 | uint16 | int32 | uint64](ws []float64, n int) []T {
	if len(ws) == 0 {
		return []T{}
	}
	var t T
	return unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(ws))), 8*len(ws)/int(unsafe.Sizeof(t)))[:n]
}

// lanesBelow reports whether every lane-bit lane (8 or 16) of the words
// holds a value below n, a whole word at a time: adding 2^(lane-1)−n to a
// lane's low lane−1 bits carries into its top bit exactly when they are ≥ n,
// and no lane's sum reaches the next lane.
func lanesBelow(ws []float64, lane uint, n int) bool {
	half := uint64(1) << (lane - 1)
	if uint64(n) >= 2*half {
		return true
	}
	ones := ^uint64(0) / (2*half - 1) // 1 in every lane
	highs := ones * half
	lows := highs - ones
	var bad uint64
	if uint64(n) <= half {
		// A lane is bad when its top bit is set or its low bits are ≥ n.
		add := ones * (half - uint64(n))
		for _, x := range wordView[uint64](ws, len(ws)) {
			bad |= (x&lows + add) | x
		}
	} else {
		// A lane is bad when its top bit is set and its low bits are ≥ n−half.
		add := ones * (2*half - uint64(n))
		for _, x := range wordView[uint64](ws, len(ws)) {
			bad |= (x&lows + add) & x
		}
	}
	return bad&highs == 0
}

// codesBelow reports whether every code is below n.
func codesBelow[T uint8 | uint16](codes []T, n int) bool {
	for _, c := range codes {
		if int(c) >= n {
			return false
		}
	}
	return true
}

// offsetsValid reports whether offs is strictly increasing inside [0, rows).
func offsetsValid(offs []int32, rows int) bool {
	prev := -1
	for _, o := range offs {
		if int(o) <= prev || int(o) >= rows {
			return false
		}
		prev = int(o)
	}
	return true
}

// runsValid reports whether rs holds (start, length) pairs of non-empty runs,
// sorted and disjoint, inside [0, rows).
func runsValid(rs []int32, rows int) bool {
	if len(rs)%2 != 0 {
		return false
	}
	end := 0
	for k := 0; k < len(rs); k += 2 {
		start, length := int(rs[k]), int(rs[k+1])
		if start < end || length <= 0 || start+length > rows {
			return false
		}
		end = start + length
	}
	return true
}

// --- writer ---------------------------------------------------------------

type pageWriter struct {
	buf []float64
	off int
}

func (w *pageWriter) putInt(v int) {
	w.buf[w.off] = float64(v)
	w.off++
}

func (w *pageWriter) putFloats(vals []float64) {
	copy(w.buf[w.off:], vals)
	w.off += len(vals)
}

func (w *pageWriter) putDict(d *dict) {
	w.putInt(len(d.cols))
	for _, c := range d.cols {
		w.putInt(c)
	}
	w.putInt(d.numEntries())
	w.putFloats(d.vals)
}

// putPacked stores vals through a byte view of the next words, in memory
// order, and zeroes the rest of the last word: the layout wordView reads.
func putPacked[T uint8 | uint16 | int32](w *pageWriter, vals []T) {
	var t T
	nw := (len(vals)*int(unsafe.Sizeof(t)) + 7) / 8
	dst := wordView[T](w.buf[w.off:w.off+nw], 0)
	dst = dst[:cap(dst)]
	clear(dst[copy(dst, vals):])
	w.off += nw
}

// --- reader ---------------------------------------------------------------

type pageReader struct {
	buf    []float64
	off    int
	groups int       // the page's group count
	ucs    []UCGroup // backing for the decoded UC groups, never regrown
}

func (r *pageReader) int() (int, error) {
	if r.off >= len(r.buf) {
		return 0, fmt.Errorf("compress: DecodePage: truncated page at word %d", r.off)
	}
	v := r.buf[r.off]
	r.off++
	n := int(v)
	if float64(n) != v || n < 0 {
		return 0, fmt.Errorf("compress: DecodePage: word %d = %v is not a non-negative int", r.off-1, v)
	}
	return n, nil
}

// count reads an item count and rejects one that the words left cannot hold
// at size words per item, before anything is sized from it: a corrupt page
// must fail to decode, not allocate without bound.
func (r *pageReader) count(size int) (int, error) {
	n, err := r.int()
	if err != nil {
		return 0, err
	}
	if left := len(r.buf) - r.off; n > left/size {
		return 0, fmt.Errorf("compress: DecodePage: count %d at word %d needs more than the %d words left", n, r.off-1, left)
	}
	return n, nil
}

func (r *pageReader) floats(n int) ([]float64, error) {
	if r.off+n > len(r.buf) {
		return nil, fmt.Errorf("compress: DecodePage: truncated page at word %d (need %d floats)", r.off, n)
	}
	v := r.buf[r.off : r.off+n : r.off+n]
	r.off += n
	return v, nil
}

func (r *pageReader) dict() (dict, error) {
	w, err := r.count(1)
	if err != nil {
		return dict{}, err
	}
	if w == 0 {
		return dict{}, fmt.Errorf("compress: DecodePage: empty dictionary column set")
	}
	cols := make([]int, w)
	for i := range cols {
		if cols[i], err = r.int(); err != nil {
			return dict{}, err
		}
	}
	ne, err := r.count(w)
	if err != nil {
		return dict{}, err
	}
	vals, err := r.floats(ne * w)
	if err != nil {
		return dict{}, err
	}
	return dict{cols: cols, vals: vals}, nil
}
