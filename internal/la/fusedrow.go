package la

import (
	"fmt"

	"dmml/internal/pool"
)

// Row template: Xᵀ·g(f(X·u)) in one pass over the rows of X — SystemML's
// mmchain operator and SPOOF's Row template. The unfused plan reads X twice
// (X·u, then Xᵀ·r) and materializes the margins and every intermediate of f
// and g; here each row tile of X is read once, while it is cache-resident:
//
//  1. the tile's margins X_tile·u (matVecRows, shared with MatVecInto);
//  2. f over the margins (a compiled cell program), written to v when the
//     caller keeps f's result;
//  3. g over f's result (a compiled cell program) into tile scratch;
//  4. acc += X_tileᵀ·g (vecMatAccum), summed over VecMatInto's own grid.
//
// Every stage is the unfused plan's own arithmetic — the same per-row Dot
// association, the same cell loops, the same row pairing on the same
// pool.Reduce grid — so v and the product equal MatVecInto, the cell
// programs and VecMatInto applied in sequence, bit for bit, at every
// GOMAXPROCS.

// RowCell is one stage of a Row chain: a compiled cell program over column
// vectors of X's row count and scalars. Input Slot is the stage's link to the
// chain — X·u for f, f's result for g — and is fed tile by tile; Ins[Slot]
// itself is ignored.
type RowCell struct {
	Prog *FuseProgram
	Ins  []FusedInput
	Slot int
}

// FusedRowInto computes dst = Xᵀ·g(f(X·u)) and returns dst. dst must have
// length X.Cols() and u length X.Cols(). A nil f.Prog makes f the identity,
// and v must then be nil; otherwise v (length X.Rows()) receives f(X·u).
// Rows are summed in the fixed chunks of pool.Grain through pool.Reduce, so
// the result is bit-identical at every core count; a call allocates nothing.
func FusedRowInto(dst, v []float64, x *Dense, u []float64, f, g RowCell) []float64 {
	n, d := x.rows, x.cols
	if len(u) != d || len(dst) != d {
		panic(fmt.Sprintf("la: FusedRowInto u len %d, dst len %d for %dx%d", len(u), len(dst), n, d))
	}
	if (f.Prog == nil) != (v == nil) || (v != nil && len(v) != n) {
		panic(fmt.Sprintf("la: FusedRowInto v len %d with f set: %t, for %d rows", len(v), f.Prog != nil, n))
	}
	if f.Prog != nil {
		rowCheckCell(f, n)
	}
	rowCheckCell(g, n)
	rc := rowCalls.Get()
	rc.x, rc.u, rc.v = x, u, v
	rc.f.RowCell, rc.g.RowCell = f, g
	arith, depth := g.Prog.arith, g.Prog.depth
	rc.g.k, rc.g.sv = g.Prog.prepare(g.Ins)
	if f.Prog != nil {
		arith, depth = arith+f.Prog.arith, max(depth, f.Prog.depth)
		rc.f.k, rc.f.sv = f.Prog.prepare(f.Ins)
	}
	rc.depth = depth
	sw := mFusedRowTimer.Start()
	mFusedRowCalls.Inc()
	mFlops.Add((4*int64(d) + int64(arith)) * int64(n))
	for j := range dst {
		dst[j] = 0
	}
	// VecMatInto's grid, so the accumulation pairs the same rows and merges
	// the same partials.
	pool.Reduce(dst, n, d, rc.run)
	sw.Stop()
	g.Prog.release(rc.g.sv)
	if f.Prog != nil {
		f.Prog.release(rc.f.sv)
	}
	*rc = rowCall{run: rc.run}
	rowCalls.Put(rc)
	return dst
}

// rowCheckCell validates a stage's inputs: every one but the link is a
// scalar or an n×1 dense column.
func rowCheckCell(c RowCell, n int) {
	if len(c.Ins) != c.Prog.nin || c.Slot < 0 || c.Slot >= len(c.Ins) {
		panic(fmt.Sprintf("la: Row stage has %d inputs and link %d, program wants %d", len(c.Ins), c.Slot, c.Prog.nin))
	}
	for i, in := range c.Ins {
		if i == c.Slot || in.IsScalar {
			continue
		}
		if in.D == nil || in.D.rows != n || in.D.cols != 1 {
			panic(fmt.Sprintf("la: Row stage input %d is not a %dx1 column", i, n))
		}
	}
}

// rowStage is a stage resolved for one call: its compiled kernel and its
// scalar prelude.
type rowStage struct {
	RowCell
	k  *fusedKernel
	sv []float64
}

// rowCall is one FusedRowInto call's state, recycled with its run method
// value bound once so the call allocates no closure.
type rowCall struct {
	x     *Dense
	u, v  []float64
	f, g  rowStage
	depth int // deeper of the two programs' operand stacks
	run   func(acc []float64, lo, hi int)
}

var rowCalls = pool.Freelist[rowCall]{New: func() *rowCall {
	rc := &rowCall{}
	rc.run = rc.accum
	return rc
}}

// rowWorker is one range's scratch: an operand stack shared by the two
// stages (they run one after the other), the margins and g tiles, and per
// stage the tile views its inputs are rebound to.
type rowWorker struct {
	ctx      fuseCtx
	marg, gt []float64
	ins      [2][]FusedInput
	views    [2][]Dense
}

var rowWorkers = pool.Freelist[rowWorker]{New: func() *rowWorker { return new(rowWorker) }}

// getRowWorker hands out a range's worker for rc, whose scratch block
// deliberately outlives this call: putRowWorker releases it.
//
//dmml:owns-scratch
func getRowWorker(rc *rowCall) *rowWorker {
	w := rowWorkers.Get()
	w.ctx.buf = pool.GetF64((rc.depth + 2) * fusedTileW)
	for i := 0; i < rc.depth; i++ {
		w.ctx.scratch[i] = w.ctx.buf[i*fusedTileW : (i+1)*fusedTileW]
	}
	w.marg = w.ctx.buf[rc.depth*fusedTileW : (rc.depth+1)*fusedTileW]
	w.gt = w.ctx.buf[(rc.depth+1)*fusedTileW:]
	for i, n := range [2]int{len(rc.f.Ins), len(rc.g.Ins)} {
		if cap(w.ins[i]) < n {
			w.ins[i], w.views[i] = make([]FusedInput, n), make([]Dense, n)
		}
		w.ins[i], w.views[i] = w.ins[i][:n], w.views[i][:n]
	}
	return w
}

func putRowWorker(w *rowWorker) {
	pool.PutF64(w.ctx.buf)
	w.ctx.buf = nil
	for i := range w.ctx.scratch {
		w.ctx.scratch[i] = nil
	}
	w.ctx.ins, w.ctx.sv = nil, nil
	w.marg, w.gt = nil, nil
	for i := range w.ins {
		clear(w.ins[i])
		clear(w.views[i])
	}
	rowWorkers.Put(w)
}

// rowTileRows is the rows per tile for a d-column X: at most one fused tile,
// small enough that the tile of X stays cache-resident between the margin
// pass and the accumulation, and even, so vecMatAccum pairs a chunk's rows
// the same way when it is fed tile by tile.
func rowTileRows(d int) int {
	return max(2, min(fusedTileW, (1<<15)/(8*d))) &^ 1
}

// accum adds Xᵀ·g(f(X·u)) over rows [lo,hi) into acc.
func (rc *rowCall) accum(acc []float64, lo, hi int) {
	w := getRowWorker(rc)
	step := rowTileRows(rc.x.cols)
	for r0 := lo; r0 < hi; r0 += step {
		r1 := min(r0+step, hi)
		m := w.marg[:r1-r0]
		matVecRows(m, rc.x, rc.u, r0, r1)
		vt := m
		if rc.f.Prog != nil {
			vt = rc.v[r0:r1]
			w.stage(&rc.f, 0, m, vt, r0, r1)
		}
		gt := w.gt[:r1-r0]
		w.stage(&rc.g, 1, vt, gt, r0, r1)
		vecMatAccum(acc, gt, rc.x, r0, r1)
	}
	putRowWorker(w)
}

// stage runs stage s (the worker's input set i) over rows [r0,r1) into out:
// dense inputs are rebound to their rows of the tile, the link to the
// previous stage's tile, and the compiled kernel — flat template or closure
// tree — runs on the tile-relative range as it would on a whole matrix.
func (w *rowWorker) stage(s *rowStage, i int, link, out []float64, r0, r1 int) {
	ins, views := w.ins[i], w.views[i]
	for j, in := range s.Ins {
		switch {
		case j == s.Slot:
			views[j] = Dense{rows: r1 - r0, cols: 1, data: link}
		case in.IsScalar:
			ins[j] = in
			continue
		default:
			views[j] = Dense{rows: r1 - r0, cols: 1, data: in.D.data[r0:r1]}
		}
		ins[j] = FusedInput{D: &views[j]}
	}
	if s.k.flatCell != nil {
		s.k.flatCell(ins, s.sv, out, 0, r1-r0)
		return
	}
	w.ctx.cellTiles(s.k, ins, s.sv, out, 1, 0, r1-r0)
}
