package compress

import (
	"fmt"
	"math"
)

// Page codec: serialize a compressed Matrix into a flat []float64 so it can
// live in a storage.BufferPool page (the pool's unit of residency and spill).
// Every word is one float64; integers are stored as exact small floats and
// narrow payloads (codes, offsets) are bit-packed into words via
// math.Float64bits, which round-trips through the pool's spill format
// bit-for-bit. DecodePage returns a Matrix whose dictionaries and UC columns
// alias the page slice (zero copy) — the caller must keep the page pinned for
// the lifetime of the decoded Matrix.

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
				w.putPacked8(g.codes8)
			} else {
				w.putInt(pkDDC2)
				w.putDict(&g.d)
				w.putInt(g.rows)
				w.putPacked16(g.codes)
			}
		case *OLEGroup:
			w.putInt(pkOLE)
			w.putDict(&g.d)
			w.putInt(g.rows)
			for _, offs := range g.offsets {
				w.putInt(len(offs))
				w.putPacked32(offs)
			}
		case *RLEGroup:
			w.putInt(pkRLE)
			w.putDict(&g.d)
			w.putInt(g.rows)
			for _, rs := range g.runs {
				w.putInt(len(rs))
				w.putPacked32(rs)
			}
		case *UCGroup:
			w.putInt(pkUC)
			w.putInt(g.col)
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
// returned Matrix's dictionary values and UC columns alias data; keep the
// backing page pinned while the Matrix is in use. Codes, offsets, and runs
// are unpacked into freshly allocated slices.
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
	ng, err := r.count(1)
	if err != nil {
		return nil, err
	}
	m.groups = make([]Group, 0, ng)
	for gi := 0; gi < ng; gi++ {
		kind, err := r.int()
		if err != nil {
			return nil, err
		}
		var g Group
		switch kind {
		case pkDDC1, pkDDC2:
			d, err := r.dict()
			if err != nil {
				return nil, err
			}
			rows, err := r.int()
			if err != nil {
				return nil, err
			}
			dg := &DDCGroup{d: d, rows: rows}
			if kind == pkDDC1 {
				if dg.codes8, err = r.packed8(rows); err != nil {
					return nil, err
				}
			} else {
				if dg.codes, err = r.packed16(rows); err != nil {
					return nil, err
				}
			}
			g = dg
		case pkOLE, pkRLE:
			d, err := r.dict()
			if err != nil {
				return nil, err
			}
			rows, err := r.int()
			if err != nil {
				return nil, err
			}
			ne := d.numEntries()
			lists := make([][]int32, ne)
			for t := 0; t < ne; t++ {
				n, err := r.int()
				if err != nil {
					return nil, err
				}
				if lists[t], err = r.packed32(n); err != nil {
					return nil, err
				}
			}
			if kind == pkOLE {
				g = &OLEGroup{d: d, offsets: lists, rows: rows}
			} else {
				g = &RLEGroup{d: d, runs: lists, rows: rows}
			}
		case pkUC:
			col, err := r.int()
			if err != nil {
				return nil, err
			}
			n, err := r.int()
			if err != nil {
				return nil, err
			}
			vals, err := r.floats(n)
			if err != nil {
				return nil, err
			}
			g = &UCGroup{col: col, data: vals}
		default:
			return nil, fmt.Errorf("compress: DecodePage: group %d has unknown kind %d", gi, kind)
		}
		m.groups = append(m.groups, g)
	}
	if r.off != len(data) {
		return nil, fmt.Errorf("compress: DecodePage: %d trailing words", len(data)-r.off)
	}
	return m, nil
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

func (w *pageWriter) putPacked8(codes []uint8) {
	for i := 0; i < len(codes); i += 8 {
		var word uint64
		for j := 0; j < 8 && i+j < len(codes); j++ {
			word |= uint64(codes[i+j]) << (8 * j)
		}
		w.buf[w.off] = math.Float64frombits(word)
		w.off++
	}
}

func (w *pageWriter) putPacked16(codes []uint16) {
	for i := 0; i < len(codes); i += 4 {
		var word uint64
		for j := 0; j < 4 && i+j < len(codes); j++ {
			word |= uint64(codes[i+j]) << (16 * j)
		}
		w.buf[w.off] = math.Float64frombits(word)
		w.off++
	}
}

func (w *pageWriter) putPacked32(vals []int32) {
	for i := 0; i < len(vals); i += 2 {
		word := uint64(uint32(vals[i]))
		if i+1 < len(vals) {
			word |= uint64(uint32(vals[i+1])) << 32
		}
		w.buf[w.off] = math.Float64frombits(word)
		w.off++
	}
}

// --- reader ---------------------------------------------------------------

type pageReader struct {
	buf []float64
	off int
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

func (r *pageReader) words(n int) ([]float64, error) {
	return r.floats(n)
}

// The packed decoders run on every block pin, so they unpack a full word per
// loop iteration instead of re-loading and re-shifting the word per code.

func (r *pageReader) packed8(n int) ([]uint8, error) {
	ws, err := r.words((n + 7) / 8)
	if err != nil {
		return nil, err
	}
	out := make([]uint8, n)
	i := 0
	for ; i+8 <= n; i += 8 {
		w := math.Float64bits(ws[i>>3])
		out[i] = uint8(w)
		out[i+1] = uint8(w >> 8)
		out[i+2] = uint8(w >> 16)
		out[i+3] = uint8(w >> 24)
		out[i+4] = uint8(w >> 32)
		out[i+5] = uint8(w >> 40)
		out[i+6] = uint8(w >> 48)
		out[i+7] = uint8(w >> 56)
	}
	if i < n {
		w := math.Float64bits(ws[len(ws)-1])
		for ; i < n; i++ {
			out[i] = uint8(w)
			w >>= 8
		}
	}
	return out, nil
}

func (r *pageReader) packed16(n int) ([]uint16, error) {
	ws, err := r.words((n + 3) / 4)
	if err != nil {
		return nil, err
	}
	out := make([]uint16, n)
	i := 0
	for ; i+4 <= n; i += 4 {
		w := math.Float64bits(ws[i>>2])
		out[i] = uint16(w)
		out[i+1] = uint16(w >> 16)
		out[i+2] = uint16(w >> 32)
		out[i+3] = uint16(w >> 48)
	}
	if i < n {
		w := math.Float64bits(ws[len(ws)-1])
		for ; i < n; i++ {
			out[i] = uint16(w)
			w >>= 16
		}
	}
	return out, nil
}

func (r *pageReader) packed32(n int) ([]int32, error) {
	ws, err := r.words((n + 1) / 2)
	if err != nil {
		return nil, err
	}
	out := make([]int32, n)
	i := 0
	for ; i+2 <= n; i += 2 {
		w := math.Float64bits(ws[i>>1])
		out[i] = int32(uint32(w))
		out[i+1] = int32(uint32(w >> 32))
	}
	if i < n {
		out[i] = int32(uint32(math.Float64bits(ws[len(ws)-1])))
	}
	return out, nil
}
