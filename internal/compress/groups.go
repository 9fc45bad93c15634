// Package compress implements compressed linear algebra (CLA) in the style
// surveyed by the paper (Elgohary et al., SystemML's CLA): columns are
// grouped, each group stores a dictionary of distinct value tuples and a
// compressed representation of which rows hold which tuple, and linear
// algebra ops (matrix–vector, vector–matrix, aggregates) execute directly on
// the compressed form without decompression.
//
// Encodings:
//   - DDC (dense dictionary coding): one code per row (1 or 2 bytes).
//   - OLE (offset-list encoding): per dictionary entry, the sorted list of
//     row offsets holding it.
//   - RLE (run-length encoding): per dictionary entry, sorted (start,len)
//     runs of rows holding it.
//   - UC (uncompressed column): plain float64 column, the fallback.
package compress

import (
	"fmt"

	"dmml/internal/la"
	"dmml/internal/pool"
)

// Group is one compressed column group: a set of columns co-coded together.
// All accumulate ops are additive so a Matrix can sum contributions across
// its groups.
type Group interface {
	// Cols returns the original column indices covered by this group.
	Cols() []int
	// Encoding names the physical encoding, for diagnostics.
	Encoding() string
	// VecMatAccum adds, for every column j in Cols, Σ_i x[i]·X[i,j] into out[j].
	VecMatAccum(out, x []float64)
	// ColSumsAccum adds per-column sums into out (indexed by original column).
	ColSumsAccum(out []float64)
	// DecompressInto writes the group's columns into m.
	DecompressInto(m *la.Dense)
	// SizeBytes estimates the in-memory footprint of the compressed form.
	SizeBytes() int
	// Scale multiplies all values by s (a dictionary-only operation for the
	// dictionary encodings — the CLA selling point for scalar ops).
	Scale(s float64)
	// dictionary returns the group's tuple dictionary, nil for UC.
	dictionary() *dict
	// matVecRange adds, for every row i in [lo,hi), Σ_j X[i,j]·v[j] (j over
	// Cols) into out[i]. pre is the dictionary premultiplied by v
	// (dict.premulInto), nil for UC. It touches no row outside [lo,hi), so
	// disjoint ranges run concurrently, and each row gets the same single
	// addition whatever range it falls in.
	matVecRange(out, pre, v []float64, lo, hi int)
	// vecMatRange adds, for every dictionary entry t, Σ x[i] over the rows
	// i in [lo,hi) holding t into wts[t] — for UC, Σ x[i]·X[i,col] into
	// wts[0]. Scattering the summed weights through the dictionary
	// (dict.scatterWeighted) gives VecMatAccum's contribution. Like
	// matVecRange it reads no row outside [lo,hi).
	vecMatRange(wts, x []float64, lo, hi int)
}

// dict is a tuple dictionary: entry t covers len(cols) values.
type dict struct {
	cols []int     // original column indices
	vals []float64 // len = numEntries * len(cols), row-major by entry
}

func (d *dict) numEntries() int { return len(d.vals) / len(d.cols) }

func (d *dict) entry(t int) []float64 {
	w := len(d.cols)
	return d.vals[t*w : (t+1)*w]
}

// premulInto computes, per dictionary entry t, Σ_j entry[j]·v[cols[j]] into
// out[t]; out has numEntries elements.
//
//dmml:noalloc
func (d *dict) premulInto(out, v []float64) {
	w := len(d.cols)
	for t := range out {
		e := d.entry(t)
		var s float64
		for j := 0; j < w; j++ {
			s += e[j] * v[d.cols[j]]
		}
		out[t] = s
	}
}

// scatterWeighted adds, for every entry t with a non-zero weight,
// weightPerEntry[t] times the entry into out at the dictionary's columns.
//
//dmml:noalloc
func (d *dict) scatterWeighted(out, weightPerEntry []float64) {
	w := len(d.cols)
	for t, wt := range weightPerEntry {
		if wt == 0 {
			continue
		}
		e := d.entry(t)
		for j := 0; j < w; j++ {
			out[d.cols[j]] += wt * e[j]
		}
	}
}

//dmml:noalloc
func (d *dict) scale(s float64) {
	for i := range d.vals {
		d.vals[i] *= s
	}
}

func (d *dict) sizeBytes() int { return 8*len(d.vals) + 8*len(d.cols) }

// --- DDC ------------------------------------------------------------------

// DDCGroup stores one dictionary code per row. Codes are 1 byte when the
// dictionary has ≤256 entries (DDC1) and 2 bytes otherwise (DDC2).
type DDCGroup struct {
	d      dict
	codes8 []uint8  // non-nil iff DDC1
	codes  []uint16 // non-nil iff DDC2
	rows   int
}

// Cols implements Group.
func (g *DDCGroup) Cols() []int { return g.d.cols }

// Encoding implements Group.
func (g *DDCGroup) Encoding() string {
	if g.codes8 != nil {
		return "DDC1"
	}
	return "DDC2"
}

func (g *DDCGroup) dictionary() *dict { return &g.d }

//dmml:noalloc
func (g *DDCGroup) matVecRange(out, pre, _ []float64, lo, hi int) {
	if g.codes8 != nil {
		codes := g.codes8[lo:hi]
		out := out[lo : lo+len(codes)] // same length: no bounds check on out[i]
		for i, c := range codes {
			out[i] += pre[c]
		}
		return
	}
	codes := g.codes[lo:hi]
	out = out[lo : lo+len(codes)]
	for i, c := range codes {
		out[i] += pre[c]
	}
}

// VecMatAccum implements Group.
//
//dmml:noalloc
func (g *DDCGroup) VecMatAccum(out, x []float64) {
	acc := pool.GetF64Zeroed(g.d.numEntries())
	g.vecMatRange(acc, x, 0, g.rows)
	g.d.scatterWeighted(out, acc)
	pool.PutF64(acc)
}

//dmml:noalloc
func (g *DDCGroup) vecMatRange(wts, x []float64, lo, hi int) {
	if g.codes8 != nil {
		codes := g.codes8[lo:hi]
		x := x[lo : lo+len(codes)]
		for i, c := range codes {
			wts[c] += x[i]
		}
		return
	}
	codes := g.codes[lo:hi]
	x = x[lo : lo+len(codes)]
	for i, c := range codes {
		wts[c] += x[i]
	}
}

func (g *DDCGroup) entryCounts() []float64 {
	counts := make([]float64, g.d.numEntries())
	if g.codes8 != nil {
		for _, c := range g.codes8 {
			counts[c]++
		}
	} else {
		for _, c := range g.codes {
			counts[c]++
		}
	}
	return counts
}

// ColSumsAccum implements Group.
func (g *DDCGroup) ColSumsAccum(out []float64) { g.d.scatterWeighted(out, g.entryCounts()) }

// DecompressInto implements Group.
func (g *DDCGroup) DecompressInto(m *la.Dense) {
	w := len(g.d.cols)
	write := func(i, t int) {
		e := g.d.entry(t)
		row := m.RowView(i)
		for j := 0; j < w; j++ {
			row[g.d.cols[j]] = e[j]
		}
	}
	if g.codes8 != nil {
		for i, c := range g.codes8 {
			write(i, int(c))
		}
		return
	}
	for i, c := range g.codes {
		write(i, int(c))
	}
}

// SizeBytes implements Group.
func (g *DDCGroup) SizeBytes() int {
	n := g.d.sizeBytes()
	if g.codes8 != nil {
		return n + len(g.codes8)
	}
	return n + 2*len(g.codes)
}

// Scale implements Group.
func (g *DDCGroup) Scale(s float64) { g.d.scale(s) }

// --- OLE ------------------------------------------------------------------

// OLEGroup stores, for each dictionary entry, the sorted offsets of rows
// holding it. Rows not covered by any entry implicitly hold zero in all of
// the group's columns, so OLE is the natural encoding for sparse columns.
type OLEGroup struct {
	d       dict
	offsets [][]int32 // per entry, sorted row ids
	rows    int
}

// Cols implements Group.
func (g *OLEGroup) Cols() []int { return g.d.cols }

// Encoding implements Group.
func (g *OLEGroup) Encoding() string { return "OLE" }

func (g *OLEGroup) dictionary() *dict { return &g.d }

// matVecRange finds each entry's offsets inside [lo,hi) by binary search on
// the sorted list.
//
//dmml:noalloc
func (g *OLEGroup) matVecRange(out, pre, _ []float64, lo, hi int) {
	for t, offs := range g.offsets {
		p := pre[t]
		if p == 0 {
			continue
		}
		for _, i := range offs[searchInt32(offs, lo):searchInt32(offs, hi)] {
			out[i] += p
		}
	}
}

// searchInt32 returns the index of the first element of the sorted s that is
// at least x (len(s) if none is).
//
//dmml:noalloc
func searchInt32(s []int32, x int) int {
	lo, hi := 0, len(s)
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); int(s[mid]) < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

//dmml:noalloc
func (g *OLEGroup) vecMatRange(wts, x []float64, lo, hi int) {
	for t, offs := range g.offsets {
		var s float64
		for _, i := range offs[searchInt32(offs, lo):searchInt32(offs, hi)] {
			s += x[i]
		}
		wts[t] += s
	}
}

// VecMatAccum implements Group.
//
//dmml:noalloc
func (g *OLEGroup) VecMatAccum(out, x []float64) {
	w := len(g.d.cols)
	for t, offs := range g.offsets {
		var s float64
		for _, i := range offs {
			s += x[i]
		}
		if s == 0 {
			continue
		}
		e := g.d.entry(t)
		for j := 0; j < w; j++ {
			out[g.d.cols[j]] += s * e[j]
		}
	}
}

// ColSumsAccum implements Group.
func (g *OLEGroup) ColSumsAccum(out []float64) {
	w := len(g.d.cols)
	for t, offs := range g.offsets {
		n := float64(len(offs))
		e := g.d.entry(t)
		for j := 0; j < w; j++ {
			out[g.d.cols[j]] += n * e[j]
		}
	}
}

// DecompressInto implements Group.
func (g *OLEGroup) DecompressInto(m *la.Dense) {
	w := len(g.d.cols)
	for t, offs := range g.offsets {
		e := g.d.entry(t)
		for _, i := range offs {
			row := m.RowView(int(i))
			for j := 0; j < w; j++ {
				row[g.d.cols[j]] = e[j]
			}
		}
	}
}

// SizeBytes implements Group.
func (g *OLEGroup) SizeBytes() int {
	n := g.d.sizeBytes()
	for _, offs := range g.offsets {
		n += 4 * len(offs)
	}
	return n
}

// Scale implements Group.
func (g *OLEGroup) Scale(s float64) { g.d.scale(s) }

// --- RLE ------------------------------------------------------------------

// RLEGroup stores, for each dictionary entry, sorted (start, length) runs of
// rows holding it. Rows covered by no run hold zero.
type RLEGroup struct {
	d    dict
	runs [][]int32 // per entry, flattened [start0,len0,start1,len1,...]
	rows int
}

// Cols implements Group.
func (g *RLEGroup) Cols() []int { return g.d.cols }

// Encoding implements Group.
func (g *RLEGroup) Encoding() string { return "RLE" }

func (g *RLEGroup) dictionary() *dict { return &g.d }

// matVecRange finds each entry's first run ending after lo by binary search
// and clips the runs that straddle lo or hi.
//
//dmml:noalloc
func (g *RLEGroup) matVecRange(out, pre, _ []float64, lo, hi int) {
	for t, rs := range g.runs {
		p := pre[t]
		if p == 0 {
			continue
		}
		for k := firstRunEndingAfter(rs, lo); k+1 < len(rs); k += 2 {
			start := int(rs[k])
			if start >= hi {
				break
			}
			for i, end := max(start, lo), min(start+int(rs[k+1]), hi); i < end; i++ {
				out[i] += p
			}
		}
	}
}

// firstRunEndingAfter returns the index in the flattened runs rs of the
// first run that ends after row lo, by binary search: runs are sorted and
// disjoint, so their ends are sorted too.
//
//dmml:noalloc
func firstRunEndingAfter(rs []int32, lo int) int {
	a, b := 0, len(rs)/2
	for a < b {
		if mid := int(uint(a+b) >> 1); int(rs[2*mid])+int(rs[2*mid+1]) <= lo {
			a = mid + 1
		} else {
			b = mid
		}
	}
	return 2 * a
}

// vecMatRange clips the runs that straddle lo or hi, as matVecRange does.
//
//dmml:noalloc
func (g *RLEGroup) vecMatRange(wts, x []float64, lo, hi int) {
	for t, rs := range g.runs {
		var s float64
		for k := firstRunEndingAfter(rs, lo); k+1 < len(rs); k += 2 {
			start := int(rs[k])
			if start >= hi {
				break
			}
			for i, end := max(start, lo), min(start+int(rs[k+1]), hi); i < end; i++ {
				s += x[i]
			}
		}
		wts[t] += s
	}
}

// VecMatAccum implements Group.
//
//dmml:noalloc
func (g *RLEGroup) VecMatAccum(out, x []float64) {
	w := len(g.d.cols)
	for t, rs := range g.runs {
		var s float64
		for k := 0; k < len(rs); k += 2 {
			start, length := int(rs[k]), int(rs[k+1])
			for i := start; i < start+length; i++ {
				s += x[i]
			}
		}
		if s == 0 {
			continue
		}
		e := g.d.entry(t)
		for j := 0; j < w; j++ {
			out[g.d.cols[j]] += s * e[j]
		}
	}
}

func (g *RLEGroup) entryCounts() []float64 {
	counts := make([]float64, g.d.numEntries())
	for t, rs := range g.runs {
		var n int32
		for k := 1; k < len(rs); k += 2 {
			n += rs[k]
		}
		counts[t] = float64(n)
	}
	return counts
}

// ColSumsAccum implements Group.
func (g *RLEGroup) ColSumsAccum(out []float64) {
	w := len(g.d.cols)
	counts := g.entryCounts()
	for t, n := range counts {
		e := g.d.entry(t)
		for j := 0; j < w; j++ {
			out[g.d.cols[j]] += n * e[j]
		}
	}
}

// DecompressInto implements Group.
func (g *RLEGroup) DecompressInto(m *la.Dense) {
	w := len(g.d.cols)
	for t, rs := range g.runs {
		e := g.d.entry(t)
		for k := 0; k < len(rs); k += 2 {
			start, length := int(rs[k]), int(rs[k+1])
			for i := start; i < start+length; i++ {
				row := m.RowView(i)
				for j := 0; j < w; j++ {
					row[g.d.cols[j]] = e[j]
				}
			}
		}
	}
}

// SizeBytes implements Group.
func (g *RLEGroup) SizeBytes() int {
	n := g.d.sizeBytes()
	for _, rs := range g.runs {
		n += 4 * len(rs)
	}
	return n
}

// Scale implements Group.
func (g *RLEGroup) Scale(s float64) { g.d.scale(s) }

// --- UC -------------------------------------------------------------------

// UCGroup is an uncompressed single column, the fallback when no dictionary
// encoding pays off (e.g. continuous unique values).
type UCGroup struct {
	col  int
	data []float64
}

// Cols implements Group.
func (g *UCGroup) Cols() []int { return []int{g.col} }

// Encoding implements Group.
func (g *UCGroup) Encoding() string { return "UC" }

func (g *UCGroup) dictionary() *dict { return nil }

//dmml:noalloc
func (g *UCGroup) matVecRange(out, _, v []float64, lo, hi int) {
	vj := v[g.col]
	if vj == 0 {
		return
	}
	la.Axpy(vj, g.data[lo:hi], out[lo:hi])
}

//dmml:noalloc
func (g *UCGroup) vecMatRange(wts, x []float64, lo, hi int) {
	wts[0] += la.Dot(x[lo:hi], g.data[lo:hi])
}

// VecMatAccum implements Group.
func (g *UCGroup) VecMatAccum(out, x []float64) {
	out[g.col] += la.Dot(x, g.data)
}

// ColSumsAccum implements Group.
func (g *UCGroup) ColSumsAccum(out []float64) { out[g.col] += la.SumVec(g.data) }

// DecompressInto implements Group.
func (g *UCGroup) DecompressInto(m *la.Dense) {
	for i, v := range g.data {
		m.Set(i, g.col, v)
	}
}

// SizeBytes implements Group.
func (g *UCGroup) SizeBytes() int { return 8 * len(g.data) }

// Scale implements Group.
func (g *UCGroup) Scale(s float64) { la.ScaleVec(s, g.data) }

var (
	_ Group = (*DDCGroup)(nil)
	_ Group = (*OLEGroup)(nil)
	_ Group = (*RLEGroup)(nil)
	_ Group = (*UCGroup)(nil)
)

func describeGroup(g Group) string {
	return fmt.Sprintf("%s%v", g.Encoding(), g.Cols())
}
