package factorized

import (
	"fmt"

	"dmml/internal/la"
	"dmml/internal/pool"
)

// pushCutoff is the per-edge element count below which the gather/scatter
// passes stay serial: at ~2 flops per element, dispatch costs more than it
// saves (la's parallelThreshold at the same scale).
const pushCutoff = 1 << 16

// gramParCutoff is the scalar-work threshold for parallelizing a relation's
// weighted syrk.
const gramParCutoff = 1 << 18

// MatVecInto computes the joined X·w into dst (length Rows) and returns dst,
// implementing opt.BulkData. Aggregates flow bottom-up: each relation's
// partial products X_v·w_v are computed at that relation's granularity, each
// child's table is gathered into its parent through the edge fk, and only
// the root pass runs at fact granularity. Steady state allocates nothing.
//
// A relation's buffer is parked in the accs table until its parent's
// iteration folds and releases it — a pairing by tree topology, not by path.
//
//dmml:owns-scratch
func (t *JoinTree) MatVecInto(dst, w []float64) []float64 {
	if len(w) != t.total {
		panic(fmt.Sprintf("factorized: MatVec weight length %d, want %d", len(w), t.total))
	}
	if len(dst) != t.nodes[0].rows {
		panic(fmt.Sprintf("factorized: MatVecInto dst length %d, want %d rows", len(dst), t.nodes[0].rows))
	}
	sw := mMatVecTimer.Start()
	mMatVecCalls.Inc()
	mFlopsPushdown.Add(int64(t.flopsFact / 2))
	mFlopsMaterialized.Add(int64(t.flopsMat / 2))
	accs := t.getAccs()
	accs[0] = dst
	// Reverse topological order: children are reduced before their parent
	// gathers them.
	for idx := len(t.order) - 1; idx >= 0; idx-- {
		v := t.order[idx]
		nd := &t.nodes[v]
		acc := accs[v]
		if acc == nil {
			acc = pool.GetF64(nd.rows)
			accs[v] = acc
		}
		if nd.cols > 0 {
			la.MatVecInto(acc, nd.x, w[nd.offset:nd.offset+nd.cols])
		} else {
			zeroF64(acc)
		}
		for _, c := range nd.children {
			gatherAdd(acc, accs[c], t.nodes[c].fk)
			pool.PutF64(accs[c])
			accs[c] = nil
		}
	}
	t.putAccs(accs)
	sw.Stop()
	return dst
}

// VecMatInto computes xᵀ·X into dst (length Cols) and returns dst,
// implementing opt.BulkData. Aggregates flow top-down: x is group-summed
// through each edge so every relation sees a vector at its own granularity,
// finished by one |R_v|-sized vector–matrix product per relation. Steady
// state allocates nothing.
//
// A child's group-sum is parked in the groups table by its parent's iteration
// and released by its own — a pairing by tree topology, not by path.
//
//dmml:owns-scratch
func (t *JoinTree) VecMatInto(dst, x []float64) []float64 {
	if len(x) != t.nodes[0].rows {
		panic(fmt.Sprintf("factorized: VecMat length %d, want %d rows", len(x), t.nodes[0].rows))
	}
	if len(dst) != t.total {
		panic(fmt.Sprintf("factorized: VecMatInto dst length %d, want %d", len(dst), t.total))
	}
	sw := mVecMatTimer.Start()
	mVecMatCalls.Inc()
	mFlopsPushdown.Add(int64(t.flopsFact / 2))
	mFlopsMaterialized.Add(int64(t.flopsMat / 2))
	groups := t.getAccs()
	groups[0] = x // borrowed: read-only, never released
	for _, v := range t.order {
		nd := &t.nodes[v]
		g := groups[v]
		if nd.cols > 0 {
			la.VecMatInto(dst[nd.offset:nd.offset+nd.cols], g, nd.x)
		}
		for _, c := range nd.children {
			gc := pool.GetF64Zeroed(t.nodes[c].rows)
			groups[c] = gc
			scatterAdd(gc, g, t.nodes[c].fk)
		}
		if v != 0 {
			pool.PutF64(g)
			groups[v] = nil
		}
	}
	t.putAccs(groups)
	sw.Stop()
	return dst
}

// VecMat computes xᵀ·X into a fresh vector.
func (t *JoinTree) VecMat(x []float64) []float64 {
	return t.VecMatInto(make([]float64, t.total), x)
}

// XtY computes Xᵀy factorized (an alias of VecMat, named for the normal
// equations use case).
func (t *JoinTree) XtY(y []float64) []float64 { return t.VecMat(y) }

// Gram computes the joined XᵀX without materializing the join.
func (t *JoinTree) Gram() *la.Dense {
	return t.GramInto(la.NewDense(t.total, t.total))
}

// GramInto computes the joined XᵀX into out (Cols×Cols) and returns out —
// the F-style factorized normal equations generalized to trees:
//
//	counts        — each relation's join multiplicities, pushed top-down
//	                through the edges;
//	diagonal      — one count-weighted syrk per relation, at that
//	                relation's granularity;
//	cross blocks  — per pair, either a dense co-occurrence counting pass
//	                over the two key spaces (the count-sketch successor of
//	                the map-based star path) or a cnt-weighted feature push
//	                along the tree path, closed by one small product at the
//	                deeper relation's granularity.
//
// A relation joined through intermediate tables is never gathered at fact
// granularity, and the steady state allocates nothing.
func (t *JoinTree) GramInto(out *la.Dense) *la.Dense {
	if out.Rows() != t.total || out.Cols() != t.total {
		panic(fmt.Sprintf("factorized: GramInto %dx%d dst for %d cols", out.Rows(), out.Cols(), t.total))
	}
	sw := mGramTimer.Start()
	defer sw.Stop()
	mGramCalls.Inc()
	mFlopsPushdown.Add(int64(t.FlopsPerGram()))
	mFlopsMaterialized.Add(int64(t.FlopsPerGramMaterialized()))
	out.Zero()

	cnts := t.joinCounts()

	// Diagonal blocks: count-weighted syrk per relation.
	for v := range t.nodes {
		nd := &t.nodes[v]
		if nd.cols == 0 {
			continue
		}
		acc := pool.GetF64Zeroed(nd.cols * nd.cols)
		gramWeighted(nd.x, cnts[v], acc)
		addBlockAt(out, nd.offset, nd.offset, acc, nd.cols, nd.cols)
		pool.PutF64(acc)
	}

	// Cross blocks, upper block triangle only.
	for i := range t.cross {
		t.crossBlockInto(&t.cross[i], cnts, out)
	}

	for _, v := range t.order[1:] {
		pool.PutF64(cnts[v])
		cnts[v] = nil
	}
	t.putAccs(cnts)

	// Mirror the upper triangle into the lower.
	raw := out.RawData()
	for i := 0; i < t.total; i++ {
		for j := 0; j < i; j++ {
			raw[i*t.total+j] = raw[j*t.total+i]
		}
	}
	return out
}

// joinCounts pushes the join multiplicities top-down to every relation:
// cnts[v][r] is how many fact rows join row r of relation v, and cnts[0]
// stays nil (all ones). The caller releases every non-root cnts[v] and then
// the table.
//
//dmml:owns-scratch
func (t *JoinTree) joinCounts() [][]float64 {
	cnts := t.getAccs()
	for _, v := range t.order[1:] {
		nd := &t.nodes[v]
		cnts[v] = pool.GetF64Zeroed(nd.rows)
		countScatterAccum(cnts[v], cnts[nd.parent], nd.fk, 0, t.nodes[nd.parent].rows)
	}
	return cnts
}

// crossBlockInto computes one off-diagonal block per its precomputed plan
// and adds it at (offset[u], offset[v]).
func (t *JoinTree) crossBlockInto(p *crossPlan, cnts [][]float64, out *la.Dense) {
	offU, offV := t.nodes[p.u].offset, t.nodes[p.v].offset
	if p.kind == crossCount {
		nu, nv := t.nodes[p.u].rows, t.nodes[p.v].rows
		du, dv := t.nodes[p.u].cols, t.nodes[p.v].cols
		ku, ownU := t.composedKey(p.pathU)
		kv, ownV := t.composedKey(p.pathV)
		counts := pool.GetF64Zeroed(nu * nv)
		pairCountAccum(counts, cnts[p.lca], ku, kv, nv, 0, t.nodes[p.lca].rows)
		block := pool.GetF64Zeroed(du * dv)
		blockOuterAccum(block, counts, t.nodes[p.u].x, t.nodes[p.v].x, 0, nu)
		addBlockAt(out, offU, offV, block, du, dv)
		pool.PutF64(block)
		pool.PutF64(counts)
		if ownU {
			pool.PutInt(ku)
		}
		if ownV {
			pool.PutInt(kv)
		}
		return
	}

	// Push path: src's cnt-weighted feature rows descend pathV edge by edge
	// (the first hop fuses the weight and, for siblings, the key gather),
	// closed by one product at the deepest relation.
	start := p.lca
	d := t.nodes[p.src].cols
	var key []int
	owned := false
	if p.kind == crossPush {
		key, owned = t.composedKey(p.pathU)
	}
	cur := pool.GetF64(p.maxPathRows * d)
	nxt := pool.GetF64(p.maxPathRows * d)
	c0 := p.pathV[0]
	zeroF64(cur[:t.nodes[c0].rows*d])
	scatterGatherRowsAccum(cur, t.nodes[p.src].x, cnts[start], key, t.nodes[c0].fk, 0, t.nodes[start].rows)
	prev := c0
	for _, c := range p.pathV[1:] {
		zeroF64(nxt[:t.nodes[c].rows*d])
		scatterRowsAccum(nxt, cur, t.nodes[c].fk, d, 0, t.nodes[prev].rows)
		cur, nxt = nxt, cur
		prev = c
	}
	dd := t.nodes[prev].cols
	block := pool.GetF64Zeroed(d * dd)
	crossMulAccum(block, cur, t.nodes[prev].x, d, 0, t.nodes[prev].rows)
	if p.kind == crossAncestor && p.src == p.v {
		// The push carried v's (the ancestor's) features down to u, so the
		// computed block is (d_v × d_u); add its transpose at (u, v).
		addBlockTransposedAt(out, offU, offV, block, d, dd)
	} else {
		addBlockAt(out, offU, offV, block, d, dd)
	}
	pool.PutF64(block)
	pool.PutF64(cur)
	pool.PutF64(nxt)
	if owned {
		pool.PutInt(key)
	}
}

// composedKey resolves a tree path to a key array at the path root's
// granularity: key[i] is the path-end row joined by row i. Single-edge paths
// borrow the edge fk directly (owned=false); longer paths compose into int
// scratch the caller must release with pool.PutInt.
//
//dmml:owns-scratch
func (t *JoinTree) composedKey(path []int) (key []int, owned bool) {
	fk0 := t.nodes[path[0]].fk
	if len(path) == 1 {
		return fk0, false
	}
	k := pool.GetInt(len(fk0))
	copy(k, fk0)
	for _, c := range path[1:] {
		mapKeysAccum(k, t.nodes[c].fk, 0, len(k))
	}
	return k, true
}

// gatherAdd adds src[fk[i]] into dst[i] for every parent row — the MatVec
// edge reduction. Chunks write disjoint dst ranges, so the parallel path
// needs no partials.
func gatherAdd(dst, src []float64, fk []int) {
	n := len(fk)
	if n < pushCutoff || pool.SerialNow() {
		gatherAddAccum(dst, src, fk, 0, n)
		return
	}
	pool.Do(n, pool.Grain(n, 2), func(lo, hi int) {
		gatherAddAccum(dst, src, fk, lo, hi)
	})
}

// scatterAdd adds src[i] into dst[fk[i]] — the VecMat group-sum. Chunks
// collide on dst rows, so large inputs sum fixed chunks through pool.Reduce,
// each later chunk into a dst-sized scratch partial. A chunk spans at least
// 4·len(dst) rows, which keeps zeroing and merging its partial a small share
// of its work, and leaves an input under that size serial. The serial regime
// allocates nothing.
func scatterAdd(dst, src []float64, fk []int) {
	n := len(fk)
	chunk := max(pool.Grain(n, 2), 4*len(dst))
	if n < pushCutoff || n <= chunk {
		scatterAddAccum(dst, src, fk, 0, n)
		return
	}
	pool.Reduce(dst, n, chunk, func(acc []float64, lo, hi int) {
		scatterAddAccum(acc, src, fk, lo, hi)
	})
}

// gramWeighted accumulates the upper triangle of XᵀDX (D = diag(wts), nil =
// identity) into the row-major cols×cols buffer acc, summing fixed row chunks
// through pool.Reduce when the syrk is heavy enough.
func gramWeighted(x *la.Dense, wts []float64, acc []float64) {
	n, d := x.Dims()
	chunk := pool.Grain(n, d*d)
	if n*d*d < gramParCutoff || n <= chunk {
		gramWeightedAccum(x, wts, acc, 0, n)
		return
	}
	pool.Reduce(acc, n, chunk, func(part []float64, lo, hi int) {
		gramWeightedAccum(x, wts, part, lo, hi)
	})
}

// zeroF64 clears a buffer.
//
//dmml:noalloc
func zeroF64(b []float64) {
	for i := range b {
		b[i] = 0
	}
}

// gatherAddAccum adds src[fk[i]] into dst[i] over [lo,hi).
//
//dmml:noalloc
func gatherAddAccum(dst, src []float64, fk []int, lo, hi int) {
	for i := lo; i < hi; i++ {
		dst[i] += src[fk[i]]
	}
}

// scatterAddAccum adds src[i] into dst[fk[i]] over [lo,hi).
//
//dmml:noalloc
func scatterAddAccum(dst, src []float64, fk []int, lo, hi int) {
	for i := lo; i < hi; i++ {
		dst[fk[i]] += src[i]
	}
}

// countScatterAccum pushes join multiplicities through one edge: dst[fk[i]]
// gains src[i], or 1 when src is nil (the root's implicit counts).
//
//dmml:noalloc
func countScatterAccum(dst, src []float64, fk []int, lo, hi int) {
	if src == nil {
		for i := lo; i < hi; i++ {
			dst[fk[i]]++
		}
		return
	}
	for i := lo; i < hi; i++ {
		dst[fk[i]] += src[i]
	}
}

// mapKeysAccum composes one fk hop into an existing key array:
// key[i] = fk[key[i]].
//
//dmml:noalloc
func mapKeysAccum(key, fk []int, lo, hi int) {
	for i := lo; i < hi; i++ {
		key[i] = fk[key[i]]
	}
}

// pairCountAccum accumulates pair co-occurrence weights into the dense
// nu×nv counting array: counts[ku[i]·nv + kv[i]] gains cnt[i] (1 when cnt is
// nil).
//
//dmml:noalloc
func pairCountAccum(counts, cnt []float64, ku, kv []int, nv, lo, hi int) {
	if cnt == nil {
		for i := lo; i < hi; i++ {
			counts[ku[i]*nv+kv[i]]++
		}
		return
	}
	for i := lo; i < hi; i++ {
		counts[ku[i]*nv+kv[i]] += cnt[i]
	}
}

// blockOuterAccum folds the counted outer products into the du×dv block:
// block += Σ counts[ru,rv] · xu[ru] ⊗ xv[rv].
//
//dmml:noalloc
func blockOuterAccum(block, counts []float64, xu, xv *la.Dense, r0, r1 int) {
	nv, dv := xv.Dims()
	for ru := r0; ru < r1; ru++ {
		crow := counts[ru*nv : (ru+1)*nv]
		urow := xu.RowView(ru)
		for rv, c := range crow {
			if c == 0 {
				continue
			}
			vrow := xv.RowView(rv)
			for i, uv := range urow {
				if uv == 0 {
					continue
				}
				la.Axpy(c*uv, vrow, block[i*dv:(i+1)*dv])
			}
		}
	}
}

// scatterGatherRowsAccum is the fused first hop of a feature push:
// dst[fk[r]] += cnt[r] · x[key[r]] row-wise, with nil cnt meaning weight 1
// and nil key meaning x's own row r (the ancestor case).
//
//dmml:noalloc
func scatterGatherRowsAccum(dst []float64, x *la.Dense, cnt []float64, key, fk []int, lo, hi int) {
	d := x.Cols()
	for r := lo; r < hi; r++ {
		c := 1.0
		if cnt != nil {
			c = cnt[r]
		}
		if c == 0 {
			continue
		}
		sr := r
		if key != nil {
			sr = key[r]
		}
		la.Axpy(c, x.RowView(sr), dst[fk[r]*d:fk[r]*d+d])
	}
}

// scatterRowsAccum pushes a d-wide row table through one edge:
// dst[fk[r]] += src[r] row-wise.
//
//dmml:noalloc
func scatterRowsAccum(dst, src []float64, fk []int, d, lo, hi int) {
	for r := lo; r < hi; r++ {
		la.Axpy(1, src[r*d:(r+1)*d], dst[fk[r]*d:fk[r]*d+d])
	}
}

// crossMulAccum closes a push: block += aᵀ · x where a is the pushed
// rows×da table at x's granularity.
//
//dmml:noalloc
func crossMulAccum(block, a []float64, x *la.Dense, da, r0, r1 int) {
	dv := x.Cols()
	for r := r0; r < r1; r++ {
		arow := a[r*da : (r+1)*da]
		xrow := x.RowView(r)
		for i, av := range arow {
			if av == 0 {
				continue
			}
			brow := block[i*dv : (i+1)*dv]
			for j, xj := range xrow {
				brow[j] += av * xj
			}
		}
	}
}

// gramWeightedAccum adds the upper triangle of X[r0:r1]ᵀ D X[r0:r1] into the
// row-major d×d buffer acc (D = diag(wts); nil wts = identity).
//
//dmml:noalloc
func gramWeightedAccum(x *la.Dense, wts []float64, acc []float64, r0, r1 int) {
	d := x.Cols()
	for i := r0; i < r1; i++ {
		wi := 1.0
		if wts != nil {
			wi = wts[i]
		}
		if wi == 0 {
			continue
		}
		row := x.RowView(i)
		for a := 0; a < d; a++ {
			va := wi * row[a]
			if va == 0 {
				continue
			}
			arow := acc[a*d : (a+1)*d]
			for b := a; b < d; b++ {
				arow[b] += va * row[b]
			}
		}
	}
}

// addBlockAt adds the row-major br×bc buffer blk into out at (r0, c0).
//
//dmml:noalloc
func addBlockAt(out *la.Dense, r0, c0 int, blk []float64, br, bc int) {
	for i := 0; i < br; i++ {
		orow := out.RowView(r0 + i)
		brow := blk[i*bc : (i+1)*bc]
		for j, v := range brow {
			orow[c0+j] += v
		}
	}
}

// addBlockTransposedAt adds blkᵀ (bc×br, for a row-major br×bc blk) into out
// at (r0, c0).
//
//dmml:noalloc
func addBlockTransposedAt(out *la.Dense, r0, c0 int, blk []float64, br, bc int) {
	for i := 0; i < bc; i++ {
		orow := out.RowView(r0 + i)
		for j := 0; j < br; j++ {
			orow[c0+j] += blk[j*bc+i]
		}
	}
}
