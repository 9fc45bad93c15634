package compress

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"

	"dmml/internal/la"
	"dmml/internal/metrics"
	"dmml/internal/pool"
)

// encoding identifies a physical column encoding.
type encoding int

// encoding values. auto lets the planner choose per column.
const (
	auto encoding = iota
	forceDDC
	forceOLE
	forceRLE
	forceUC
)

// Options tunes the compression planner.
type Options struct {
	// CoCode enables greedy pairwise column co-coding of low-cardinality
	// columns, as in CLA's column group partitioning.
	CoCode bool
	// force overrides the per-column encoding choice (auto = cost-based);
	// the package's tests set it to reach every encoding.
	force encoding
}

// maxDDCCard caps the dictionary size for DDC: the largest dictionary
// addressable by the 2-byte code array. A column over the cap is never DDC.
const maxDDCCard = 1 << 16

// Matrix is a compressed matrix: a set of column groups jointly covering all
// columns. All read ops match the semantics of the equivalent la.Dense ops.
type Matrix struct {
	rows, cols int
	groups     []Group
}

// Rows returns the number of rows.
func (c *Matrix) Rows() int { return c.rows }

// Cols returns the number of columns.
func (c *Matrix) Cols() int { return c.cols }

// Groups returns the column groups (read-only use expected).
func (c *Matrix) Groups() []Group { return c.groups }

// GroupInfo returns a human-readable encoding summary, sorted for stability.
func (c *Matrix) GroupInfo() []string {
	out := make([]string, len(c.groups))
	for i, g := range c.groups {
		out[i] = describeGroup(g)
	}
	sort.Strings(out)
	return out
}

// MatVec returns X·v over the compressed representation.
func (c *Matrix) MatVec(v []float64) []float64 {
	return c.MatVecInto(make([]float64, c.rows), v)
}

// MatVecInto computes X·v into dst (overwriting it) and returns dst. Large
// matrices split the rows into fixed ranges through pool.Do, and each range
// runs every group over its rows in group order, so every row is the serial
// group-order sum whatever the split and the core count. Each dictionary is
// premultiplied by v once per call, before the ranges run. Steady state
// allocates nothing.
func (c *Matrix) MatVecInto(dst, v []float64) []float64 {
	if len(v) != c.cols {
		panic(fmt.Sprintf("compress: MatVec %dx%d × len %d", c.rows, c.cols, len(v)))
	}
	if len(dst) != c.rows {
		panic(fmt.Sprintf("compress: MatVecInto dst len %d for %d rows", len(dst), c.rows))
	}
	sw := mMatVecTimer.Start()
	defer sw.Stop()
	clear(dst)
	k := c.matVecCall(dst, v)
	if c.parallel() {
		pool.Do(c.rows, k.span, k.matVec)
	} else {
		k.matVecRows(0, c.rows)
	}
	k.put()
	return dst
}

// matVecCall returns a call for X·v into dst with every dictionary
// premultiplied by v, all into one scratch buffer, and its range span:
// pool.Grain's chunk for rows of one operation per group, where entering a
// range costs a binary search of every OLE and RLE entry list. The call owns
// the scratch until put releases it.
//
//dmml:owns-scratch
func (c *Matrix) matVecCall(dst, v []float64) *call {
	k := calls.Get()
	k.c, k.dst, k.in = c, dst, v
	if cap(k.pre) < len(c.groups) {
		k.pre = make([][]float64, len(c.groups))
	}
	k.pre = k.pre[:len(c.groups)]
	n, lists := 0, 0
	for _, g := range c.groups {
		if d := g.dictionary(); d != nil {
			n += d.numEntries()
			if _, ddc := g.(*DDCGroup); !ddc {
				lists += d.numEntries()
			}
		}
	}
	k.span = pool.Grain(c.rows, len(c.groups), lists)
	k.buf = pool.GetF64(n)
	n = 0
	for gi, g := range c.groups {
		if d := g.dictionary(); d != nil {
			ne := d.numEntries()
			k.pre[gi] = k.buf[n : n+ne : n+ne]
			d.premulInto(k.pre[gi], v)
			n += ne
		}
	}
	return k
}

// parallel reports whether the matrix's kernels fan out through the pool:
// whether rows × groups clears the pool's gate.
func (c *Matrix) parallel() bool {
	return pool.Parallel(c.rows * len(c.groups))
}

// VecMatInto computes xᵀ·X into dst (overwriting it) and returns dst.
func (c *Matrix) VecMatInto(dst, x []float64) []float64 {
	if len(dst) != c.cols {
		panic(fmt.Sprintf("compress: VecMatInto dst len %d for %d cols", len(dst), c.cols))
	}
	sw := mVecMatTimer.Start()
	defer sw.Stop()
	clear(dst)
	c.VecMatAccum(dst, x)
	return dst
}

// VecMatAccum adds xᵀ·X into dst without zeroing it first — the block-wise
// form used by the out-of-core datapath, where each block accumulates its
// contribution into one shared gradient vector. Column groups cover disjoint
// columns, so large matrices run their groups through pool.Do with every
// worker writing its own entries of dst: no partials, and the same bits as
// the serial loop. Steady state allocates nothing.
func (c *Matrix) VecMatAccum(dst, x []float64) {
	if len(x) != c.rows {
		panic(fmt.Sprintf("compress: VecMatAccum len %d × %dx%d", len(x), c.rows, c.cols))
	}
	if len(dst) != c.cols {
		panic(fmt.Sprintf("compress: VecMatAccum dst len %d for %d cols", len(dst), c.cols))
	}
	if !c.parallel() {
		for _, g := range c.groups {
			g.VecMatAccum(dst, x)
		}
		return
	}
	k := calls.Get()
	k.c, k.dst, k.in = c, dst, x
	pool.Do(len(c.groups), 1, k.vecMat)
	k.put()
}

// LossGradAccum is a gradient step's whole pass over the matrix: it writes
// X·w into margins, runs tile — a loss's serial kernel, which writes ∂L/∂m
// into derivs and returns ΣL — over them, adds Xᵀ·derivs into grad and
// returns ΣL. margins, derivs and y have length Rows; grad and w length Cols.
//
// Every dictionary is premultiplied by w once. Then one pool.Reduce walks
// pool.Grain's grid of row ranges, for rows of one unit of work per group
// plus lossTileWork for the tile, each a multiple of eight rows long, so
// the logistic tile's eight-lane groups fall on the same rows whatever the
// split. Each range computes its margins (each row the serial group-order
// sum, as in MatVecInto), its tile, and each group's per-dictionary-entry
// sums of derivs (per UC group, its dot product). The accumulator is
// [ΣL, entry weights…], merged in range order; the merged weights are then
// scattered through the dictionaries once. The grid depends on the matrix's
// rows, groups and dictionary sizes only, so the result is bit-identical
// across runs and GOMAXPROCS. Margins and derivs are those of MatVecInto and
// tile; the loss and gradient differ from the three-pass step only in
// summation order. Steady state allocates nothing.
func (c *Matrix) LossGradAccum(grad, margins, derivs, w, y []float64, tile func(derivs, margins, y []float64) float64) float64 {
	if len(w) != c.cols || len(grad) != c.cols {
		panic(fmt.Sprintf("compress: LossGradAccum w %d, grad %d for %d cols", len(w), len(grad), c.cols))
	}
	if len(margins) != c.rows || len(derivs) != c.rows || len(y) != c.rows {
		panic(fmt.Sprintf("compress: LossGradAccum margins %d, derivs %d, y %d for %d rows", len(margins), len(derivs), len(y), c.rows))
	}
	sw := mLossGradTimer.Start()
	defer sw.Stop()
	k := c.matVecCall(margins, w)
	k.derivs, k.y, k.tile = derivs, y, tile
	if cap(k.offs) < len(c.groups)+1 {
		k.offs = make([]int, len(c.groups)+1)
	}
	k.offs = k.offs[:len(c.groups)+1]
	n := 1 // acc[0] is ΣL
	for gi, g := range c.groups {
		k.offs[gi] = n
		if d := g.dictionary(); d != nil {
			n += d.numEntries()
		} else {
			n++
		}
	}
	k.offs[len(c.groups)] = n
	acc := pool.GetF64Zeroed(n)
	pool.Reduce(acc, c.rows, len(c.groups)+lossTileWork, k.lossGrad)
	for gi, g := range c.groups {
		wts := acc[k.offs[gi]:k.offs[gi+1]]
		if d := g.dictionary(); d != nil {
			d.scatterWeighted(grad, wts)
		} else {
			grad[g.(*UCGroup).col] += wts[0]
		}
	}
	loss := acc[0]
	pool.PutF64(acc)
	k.put()
	return loss
}

// lossTileWork is the loss tile's cost per row in LossGradAccum's unit of
// work, one group's lookups for one row: measured on a 4096 × 40 block of
// the out-of-core workload, co-coded to 28 groups, on 2 vCPUs, the logistic
// tile takes 26 ns per row and each group 1.7 ns per row. Without it a
// co-coded block's step (4096 × 28 groups) would count under the pool's gate
// and run serially, though the pool gains on it.
const lossTileWork = 16

// call is one MatVecInto, VecMatAccum or LossGradAccum call's state,
// recycled with its range methods bound once, so dispatching it through
// pool.Do or pool.Reduce allocates no closure.
type call struct {
	c       *Matrix
	dst, in []float64
	pre     [][]float64 // MatVecInto: per group, its premultiplied dictionary
	buf     []float64   // scratch behind pre
	span    int         // MatVecInto: rows per range
	matVec  func(lo, hi int)
	vecMat  func(lo, hi int)

	// LossGradAccum: dst holds the margins and in the weights.
	derivs, y []float64
	tile      func(derivs, margins, y []float64) float64
	offs      []int // group gi's entry weights are acc[offs[gi]:offs[gi+1]]
	lossGrad  func(acc []float64, lo, hi int)
}

var calls = pool.Freelist[call]{New: func() *call {
	k := &call{}
	k.matVec = k.matVecRows
	k.vecMat = k.vecMatGroups
	k.lossGrad = k.lossGradRows
	return k
}}

// matVecRows runs every group over rows [lo,hi), in group order.
func (k *call) matVecRows(lo, hi int) {
	for gi, g := range k.c.groups {
		g.matVecRange(k.dst, k.pre[gi], k.in, lo, hi)
	}
}

// lossGradRows is LossGradAccum over rows [lo,hi): margins, the loss tile,
// then every group's entry weights, into acc.
func (k *call) lossGradRows(acc []float64, lo, hi int) {
	clear(k.dst[lo:hi])
	k.matVecRows(lo, hi)
	acc[0] += k.tile(k.derivs[lo:hi], k.dst[lo:hi], k.y[lo:hi])
	for gi, g := range k.c.groups {
		g.vecMatRange(acc[k.offs[gi]:k.offs[gi+1]], k.derivs, lo, hi)
	}
}

// vecMatGroups accumulates groups [lo,hi).
func (k *call) vecMatGroups(lo, hi int) {
	for _, g := range k.c.groups[lo:hi] {
		g.VecMatAccum(k.dst, k.in)
	}
}

// put drops the call's references and recycles it.
func (k *call) put() {
	pool.PutF64(k.buf)
	clear(k.pre)
	k.c, k.dst, k.in, k.buf = nil, nil, nil, nil
	k.derivs, k.y, k.tile = nil, nil, nil
	calls.Put(k)
}

// GramAccum adds XᵀX into out (cols×cols) without zeroing it — the block-wise
// Gram accumulation: one column materialization plus one compressed
// vector–matrix accumulate per column, never decompressing the block.
func (c *Matrix) GramAccum(out *la.Dense) {
	if r, cl := out.Dims(); r != c.cols || cl != c.cols {
		panic(fmt.Sprintf("compress: GramAccum out %dx%d for %d cols", r, cl, c.cols))
	}
	sw := mGramTimer.Start()
	defer sw.Stop()
	ej := pool.GetF64Zeroed(c.cols)
	col := pool.GetF64(c.rows)
	for j := 0; j < c.cols; j++ {
		c.colInto(col, ej, j)
		c.VecMatAccum(out.RowView(j), col)
	}
	pool.PutF64(ej)
	pool.PutF64(col)
}

// ColSumsAccum adds per-column sums into out.
func (c *Matrix) ColSumsAccum(out []float64) {
	for _, g := range c.groups {
		g.ColSumsAccum(out)
	}
}

// Scale multiplies all elements by s. For dictionary encodings this touches
// only the (small) dictionaries — the CLA argument for cheap scalar ops.
func (c *Matrix) Scale(s float64) {
	for _, g := range c.groups {
		g.Scale(s)
	}
}

// Decompress materializes the dense equivalent. Groups write disjoint
// columns, so they decompress in parallel without coordination.
func (c *Matrix) Decompress() *la.Dense {
	m := la.NewDense(c.rows, c.cols)
	if !c.parallel() {
		for _, g := range c.groups {
			g.DecompressInto(m)
		}
		return m
	}
	pool.Do(len(c.groups), 1, func(lo, hi int) {
		for gi := lo; gi < hi; gi++ {
			c.groups[gi].DecompressInto(m)
		}
	})
	return m
}

// SizeBytes estimates the compressed footprint.
func (c *Matrix) SizeBytes() int {
	n := 0
	for _, g := range c.groups {
		n += g.SizeBytes()
	}
	return n
}

// DenseSizeBytes is the footprint of the uncompressed equivalent.
func (c *Matrix) DenseSizeBytes() int { return 8 * c.rows * c.cols }

// CompressionRatio returns dense bytes / compressed bytes.
func (c *Matrix) CompressionRatio() float64 {
	return float64(c.DenseSizeBytes()) / float64(c.SizeBytes())
}

// colStats holds exact per-column statistics driving the encoding choice.
type colStats struct {
	card    int // distinct values including zero if present
	nzCard  int // distinct non-zero values
	nzRows  int // rows with non-zero value
	nzRuns  int // maximal runs of equal non-zero values
	rows    int
	isConst bool
}

// colCode is the provisional dictionary coding of one column, built once
// during the stats pass: the distinct values in first-appearance order plus a
// per-row index into them. Every encoder and the co-coding search work on
// these codes, so the per-row hashing that dominated the old planner happens
// exactly once per column.
type colCode struct {
	vals  []float64
	codes []int32
}

// analyzeColumn computes exact column statistics and the provisional coding
// in a single pass.
func analyzeColumn(col []float64) (colStats, colCode) {
	st := colStats{rows: len(col)}
	var idx valueIndex
	cc := colCode{codes: make([]int32, len(col))}
	prev := int32(-1)
	inRun := false
	for i, v := range col {
		t := idx.code(&cc.vals, v)
		cc.codes[i] = t
		if v != 0 {
			st.nzRows++
			if !inRun || t != prev {
				st.nzRuns++
			}
			inRun = true
		} else {
			inRun = false
		}
		prev = t
	}
	st.card = len(cc.vals)
	st.nzCard = st.card
	for _, v := range cc.vals {
		if v == 0 {
			st.nzCard--
			break
		}
	}
	st.isConst = st.card == 1
	return st, cc
}

// valueIndex is analyzeColumn's table from a value to its code: open
// addressing with linear probing over slots that hold code+1 (0 is empty),
// from a multiplicative hash of the value's bits with −0 folded to +0. Keys
// compare with ==, as a map[float64] does, so the codes are a map's on every
// input: +0 and −0 share the code of whichever came first, and a NaN equals
// nothing, so every NaN gets a code of its own (and never enters the table).
type valueIndex struct {
	slots []int32 // a power of two long, at most half full
	shift uint    // 64 − log2(len(slots))
	n     int     // values in the table
}

// code returns v's code, appending v to vals as a new code if it has none.
func (x *valueIndex) code(vals *[]float64, v float64) int32 {
	if v != v {
		*vals = append(*vals, v)
		return int32(len(*vals) - 1)
	}
	if 2*(x.n+1) > len(x.slots) {
		x.grow(*vals)
	}
	mask := len(x.slots) - 1
	for h := x.home(v); ; h = (h + 1) & mask {
		s := x.slots[h]
		if s == 0 {
			*vals = append(*vals, v)
			x.slots[h] = int32(len(*vals))
			x.n++
			return int32(len(*vals) - 1)
		}
		if (*vals)[s-1] == v {
			return s - 1
		}
	}
}

// home is v's first slot.
func (x *valueIndex) home(v float64) int {
	b := math.Float64bits(v)
	if v == 0 {
		b = 0
	}
	return int((b ^ b>>31) * 0x9E3779B97F4A7C15 >> x.shift)
}

// grow doubles the table (to 64 slots at first) and re-inserts every code of
// vals but the NaNs.
func (x *valueIndex) grow(vals []float64) {
	size := max(2*len(x.slots), 64)
	x.slots = make([]int32, size)
	x.shift = uint(64 - bits.TrailingZeros(uint(size)))
	mask := size - 1
	for t, v := range vals {
		if v != v {
			continue
		}
		h := x.home(v)
		for x.slots[h] != 0 {
			h = (h + 1) & mask
		}
		x.slots[h] = int32(t + 1)
	}
}

// Size estimates (bytes) per encoding, mirroring CLA's compression planning.
func (st colStats) ddcSize() (int, bool) {
	if st.card > maxDDCCard {
		return 0, false
	}
	codeBytes := 1
	if st.card > 256 {
		codeBytes = 2
	}
	return st.rows*codeBytes + st.card*8, true
}

func (st colStats) oleSize() int { return st.nzCard*8 + st.nzRows*4 }

func (st colStats) rleSize() int { return st.nzCard*8 + st.nzRuns*8 }

func (st colStats) ucSize() int { return st.rows * 8 }

// Compress builds a compressed Matrix from a dense one using exact column
// statistics and a minimum-size encoding choice per column (optionally with
// pairwise co-coding). Column analysis and group construction both run on the
// worker pool — columns are independent, and each group touches only its own
// columns.
func Compress(m *la.Dense, opts Options) *Matrix {
	sw := mEncodeTimer.Start()
	defer sw.Stop()
	rows, cols := m.Dims()
	c := &Matrix{rows: rows, cols: cols}
	if cols == 0 {
		return c
	}

	columns := make([][]float64, cols)
	stats := make([]colStats, cols)
	codes := make([]colCode, cols)
	analyze := func(lo, hi int) {
		for j := lo; j < hi; j++ {
			columns[j] = m.Col(j)
			stats[j], codes[j] = analyzeColumn(columns[j])
		}
	}
	if !pool.Parallel(rows * cols) {
		analyze(0, cols)
	} else {
		pool.Do(cols, 1, analyze)
	}

	chosen := make([]encoding, cols)
	for j := 0; j < cols; j++ {
		chosen[j] = chooseEncoding(stats[j], opts)
	}

	// Plan the group partition serially (greedy co-coding is order-dependent)
	// and build the groups in parallel.
	type buildJob struct{ a, b int } // b < 0 for single-column groups
	var jobs []buildJob
	used := make([]bool, cols)
	if opts.CoCode {
		// Greedy pairwise co-coding of DDC columns: merge a pair when the
		// combined DDC size beats the sum of the separate sizes. Joint
		// cardinality is counted over the precomputed codes.
		for a := 0; a < cols; a++ {
			if used[a] || chosen[a] != forceDDC {
				continue
			}
			bestB, bestGain := -1, 0
			sizeA, _ := stats[a].ddcSize()
			for b := a + 1; b < cols; b++ {
				if used[b] || chosen[b] != forceDDC {
					continue
				}
				sizeB, _ := stats[b].ddcSize()
				limit := winningJointCard(rows, sizeA+sizeB-bestGain)
				jointCard := jointCardinality(&codes[a], &codes[b], limit)
				if jointCard > limit {
					continue
				}
				if gain := sizeA + sizeB - jointDDCSize(rows, jointCard); gain > bestGain {
					bestGain, bestB = gain, b
				}
			}
			if bestB >= 0 {
				jobs = append(jobs, buildJob{a, bestB})
				used[a], used[bestB] = true, true
			}
		}
	}
	for j := 0; j < cols; j++ {
		if !used[j] {
			jobs = append(jobs, buildJob{j, -1})
		}
	}

	c.groups = make([]Group, len(jobs))
	build := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			jb := jobs[i]
			if jb.b >= 0 {
				c.groups[i] = buildDDCPair(jb.a, jb.b, &codes[jb.a], &codes[jb.b])
			} else {
				c.groups[i] = buildGroup(jb.a, columns[jb.a], &codes[jb.a], chosen[jb.a])
			}
		}
	}
	if !pool.Parallel(rows * len(jobs)) {
		build(0, len(jobs))
	} else {
		pool.Do(len(jobs), 1, build)
	}
	if metrics.Enabled() {
		mRatio.Set(c.CompressionRatio())
		for _, g := range c.groups {
			countGroup(g)
		}
	}
	return c
}

func chooseEncoding(st colStats, opts Options) encoding {
	if opts.force != auto {
		if opts.force == forceDDC {
			if _, ok := st.ddcSize(); !ok {
				return forceUC
			}
		}
		return opts.force
	}
	best, bestSize := forceUC, st.ucSize()
	if s, ok := st.ddcSize(); ok && s < bestSize {
		best, bestSize = forceDDC, s
	}
	if s := st.oleSize(); s < bestSize {
		best, bestSize = forceOLE, s
	}
	if s := st.rleSize(); s < bestSize {
		best = forceRLE
	}
	return best
}

// jointDDCSize is the size in bytes of a two-column DDC group of card
// distinct value pairs.
func jointDDCSize(rows, card int) int {
	codeBytes := 1
	if card > 256 {
		codeBytes = 2
	}
	return rows*codeBytes + card*16
}

// winningJointCard is the largest joint cardinality whose two-column DDC group
// is smaller than budget bytes and addressable by DDC's codes (−1 if there is
// none): jointDDCSize grows with the cardinality, so exactly the pairs of
// cardinality up to it are smaller.
func winningJointCard(rows, budget int) int {
	// size < budget ⇔ card·16 < free = budget − rows·codeBytes.
	if free := budget - 2*rows; free > 16*257 {
		return min((free-1)/16, maxDDCCard)
	}
	if free := budget - rows; free > 0 {
		return min((free-1)/16, 256)
	}
	return -1
}

// jointDirectLimit bounds the dense pair table used for joint-code counting;
// above it (≤8 MB of int32) the counting falls back to a map on the packed
// pair code, still one integer key instead of hashing two floats per row.
const jointDirectLimit = 1 << 20

// jointCardinality counts the distinct code pairs of two columns, but stops
// as soon as the count passes limit: a result above limit means only that
// the joint cardinality is above it.
func jointCardinality(ca, cb *colCode, limit int) int {
	cardB := int32(len(cb.vals))
	if prod := len(ca.vals) * len(cb.vals); prod <= jointDirectLimit {
		seen := make([]bool, prod)
		n := 0
		for i, a := range ca.codes {
			p := a*cardB + cb.codes[i]
			if !seen[p] {
				seen[p] = true
				if n++; n > limit {
					break
				}
			}
		}
		return n
	}
	seen := make(map[int64]struct{}, 1024)
	for i, a := range ca.codes {
		seen[int64(a)*int64(cardB)+int64(cb.codes[i])] = struct{}{}
		if len(seen) > limit {
			break
		}
	}
	return len(seen)
}

func buildGroup(col int, data []float64, cc *colCode, enc encoding) Group {
	switch enc {
	case forceDDC:
		return buildDDC(col, cc)
	case forceOLE:
		return buildOLE(col, cc)
	case forceRLE:
		return buildRLE(col, cc)
	default:
		return &UCGroup{col: col, data: la.CloneVec(data)}
	}
}

// storeCodes writes the group's code array in 1- or 2-byte form depending on
// dictionary size.
func storeCodes(g *DDCGroup, codes []int32, card int) {
	if card <= 256 {
		g.codes8 = make([]uint8, len(codes))
		for i, t := range codes {
			g.codes8[i] = uint8(t)
		}
		return
	}
	g.codes = make([]uint16, len(codes))
	for i, t := range codes {
		g.codes[i] = uint16(t)
	}
}

func buildDDC(col int, cc *colCode) *DDCGroup {
	g := &DDCGroup{
		d:    dict{cols: []int{col}, vals: la.CloneVec(cc.vals)},
		rows: len(cc.codes),
	}
	storeCodes(g, cc.codes, len(cc.vals))
	return g
}

// buildDDCPair co-codes two columns into one DDC group. The joint dictionary
// is discovered by remapping the packed pair code (codeA·cardB + codeB)
// through a dense table — no per-row hashing.
func buildDDCPair(colA, colB int, ca, cb *colCode) *DDCGroup {
	rows := len(ca.codes)
	cardB := int32(len(cb.vals))
	codes := make([]int32, rows)
	var vals []float64
	next := int32(0)
	if prod := len(ca.vals) * len(cb.vals); prod <= jointDirectLimit {
		remap := make([]int32, prod)
		for i := range remap {
			remap[i] = -1
		}
		for i, a := range ca.codes {
			b := cb.codes[i]
			p := a*cardB + b
			t := remap[p]
			if t < 0 {
				t = next
				remap[p] = t
				next++
				vals = append(vals, ca.vals[a], cb.vals[b])
			}
			codes[i] = t
		}
	} else {
		remap := make(map[int64]int32, 1024)
		for i, a := range ca.codes {
			b := cb.codes[i]
			p := int64(a)*int64(cardB) + int64(b)
			t, ok := remap[p]
			if !ok {
				t = next
				remap[p] = t
				next++
				vals = append(vals, ca.vals[a], cb.vals[b])
			}
			codes[i] = t
		}
	}
	g := &DDCGroup{
		d:    dict{cols: []int{colA, colB}, vals: vals},
		rows: rows,
	}
	storeCodes(g, codes, int(next))
	return g
}

// nzRemap maps each code to its entry index in a zero-free dictionary (-1 for
// the zero value) and returns the dictionary values.
func nzRemap(cc *colCode) ([]int32, []float64) {
	remap := make([]int32, len(cc.vals))
	vals := make([]float64, 0, len(cc.vals))
	for t, v := range cc.vals {
		if v == 0 {
			remap[t] = -1
			continue
		}
		remap[t] = int32(len(vals))
		vals = append(vals, v)
	}
	return remap, vals
}

func buildOLE(col int, cc *colCode) *OLEGroup {
	remap, vals := nzRemap(cc)
	counts := make([]int32, len(vals))
	for _, t := range cc.codes {
		if e := remap[t]; e >= 0 {
			counts[e]++
		}
	}
	offsets := make([][]int32, len(vals))
	for e := range offsets {
		offsets[e] = make([]int32, 0, counts[e])
	}
	for i, t := range cc.codes {
		if e := remap[t]; e >= 0 {
			offsets[e] = append(offsets[e], int32(i))
		}
	}
	return &OLEGroup{
		d:       dict{cols: []int{col}, vals: vals},
		offsets: offsets,
		rows:    len(cc.codes),
	}
}

func buildRLE(col int, cc *colCode) *RLEGroup {
	remap, vals := nzRemap(cc)
	runs := make([][]int32, len(vals))
	i := 0
	for i < len(cc.codes) {
		t := cc.codes[i]
		j := i + 1
		for j < len(cc.codes) && cc.codes[j] == t {
			j++
		}
		if e := remap[t]; e >= 0 {
			runs[e] = append(runs[e], int32(i), int32(j-i))
		}
		i = j
	}
	return &RLEGroup{
		d:    dict{cols: []int{col}, vals: vals},
		runs: runs,
		rows: len(cc.codes),
	}
}

// colInto materializes column j into dst via the basis-vector trick: ej must
// be an all-zero length-cols scratch vector and is restored before return.
// Only the group covering j is consulted.
func (c *Matrix) colInto(dst, ej []float64, j int) {
	clear(dst)
	ej[j] = 1
	for _, g := range c.groups {
		if !slices.Contains(g.Cols(), j) {
			continue
		}
		var pre []float64
		if d := g.dictionary(); d != nil {
			pre = pool.GetF64(d.numEntries())
			d.premulInto(pre, ej)
		}
		g.matVecRange(dst, pre, ej, 0, c.rows)
		pool.PutF64(pre)
	}
	ej[j] = 0
}
