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

// gramCrossParCutoff is the predicted cross-phase cost (flop-equivalents,
// cost.go) below which GramInto runs its cross tasks serially: under it the
// whole phase takes less than a pool dispatch saves.
const gramCrossParCutoff = 1 << 17

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
//	                deeper relation's granularity. Pushes that share a source
//	                and a first hop form one chain that pushes the hop once.
//
// The cross tasks (crossTask) are independent and run concurrently, most
// expensive first, unless GOMAXPROCS is 1 or their predicted cost is under
// gramCrossParCutoff. Each block has one writer and a fixed arithmetic
// order, so out is bit-identical at every core count. A relation joined
// through intermediate tables is never gathered at fact granularity, and the
// steady state allocates nothing.
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
	if t.crossCost < gramCrossParCutoff || pool.SerialNow() {
		for i := range t.tasks {
			t.crossTaskInto(&t.tasks[i], cnts, out)
		}
	} else {
		g := gramCalls.Get()
		g.t, g.cnts, g.out = t, cnts, out
		pool.Do(len(t.tasks), 1, g.run)
		g.t, g.cnts, g.out = nil, nil, nil
		gramCalls.Put(g)
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

// gramCall is one concurrent cross phase's state, recycled with its run
// method value bound once so the dispatch allocates no closure.
type gramCall struct {
	t    *JoinTree
	cnts [][]float64
	out  *la.Dense
	run  func(lo, hi int)
}

var gramCalls = pool.Freelist[gramCall]{New: func() *gramCall {
	g := &gramCall{}
	g.run = g.tasks
	return g
}}

// tasks runs cross tasks [lo,hi).
func (g *gramCall) tasks(lo, hi int) {
	for i := lo; i < hi; i++ {
		g.t.crossTaskInto(&g.t.tasks[i], g.cnts, g.out)
	}
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

// crossTaskInto computes one task's off-diagonal blocks and adds each at
// (offset[u], offset[v]).
func (t *JoinTree) crossTaskInto(ch *crossTask, cnts [][]float64, out *la.Dense) {
	p0 := &t.cross[ch.plans[0]]
	if p0.kind == crossCount {
		t.countBlockInto(p0, cnts, out)
		return
	}

	// Push chain: src's cnt-weighted feature rows cross the first hop once
	// (fused with the weight and, for siblings, the key gather) into hop,
	// which is never overwritten. Each member then descends the rest of its
	// path edge by edge through two ping-pong tables — from the previous
	// member's table when its path extends that one, else from hop — and is
	// closed by one product at its deepest relation.
	d := t.nodes[p0.src].cols
	var key []int
	owned := false
	if p0.kind == crossPush {
		key, owned = t.composedKey(p0.pathU)
	}
	hop := pool.GetF64Zeroed(t.nodes[p0.pathV[0]].rows * d)
	scatterGatherRowsAccum(hop, t.nodes[p0.src].x, cnts[p0.lca], key, t.nodes[p0.pathV[0]].fk, 0, t.nodes[p0.lca].rows)
	if owned {
		pool.PutInt(key)
	}
	ping, pong := pool.GetF64(ch.extRows*d), pool.GetF64(ch.extRows*d) // nil for a one-hop chain
	cur := hop
	for _, i := range ch.plans {
		p := &t.cross[i]
		if p.extFrom == 1 {
			cur = hop
		}
		for k := p.extFrom; k < len(p.pathV); k++ {
			c := p.pathV[k]
			nxt := ping
			if &cur[0] == &ping[0] {
				nxt = pong
			}
			zeroF64(nxt[:t.nodes[c].rows*d])
			scatterRowsAccum(nxt, cur, t.nodes[c].fk, d, 0, t.nodes[p.pathV[k-1]].rows)
			cur = nxt
		}
		end := p.pathV[len(p.pathV)-1]
		dd := t.nodes[end].cols
		block := pool.GetF64Zeroed(d * dd)
		crossMulAccum(block, cur, t.nodes[end].x, d, 0, t.nodes[end].rows)
		offU, offV := t.nodes[p.u].offset, t.nodes[p.v].offset
		if p.kind == crossAncestor && p.src == p.v {
			// The push carried v's (the ancestor's) features down to u, so
			// the computed block is (d_v × d_u); add its transpose at (u, v).
			addBlockTransposedAt(out, offU, offV, block, d, dd)
		} else {
			addBlockAt(out, offU, offV, block, d, dd)
		}
		pool.PutF64(block)
	}
	pool.PutF64(hop)
	pool.PutF64(ping)
	pool.PutF64(pong)
}

// countBlockInto computes a count plan's block: pair co-occurrence weights
// over the two key spaces, folded into counted outer products.
func (t *JoinTree) countBlockInto(p *crossPlan, cnts [][]float64, out *la.Dense) {
	nu, nv := t.nodes[p.u].rows, t.nodes[p.v].rows
	du, dv := t.nodes[p.u].cols, t.nodes[p.v].cols
	ku, ownU := t.composedKey(p.pathU)
	kv, ownV := t.composedKey(p.pathV)
	counts := pool.GetF64Zeroed(nu * nv)
	pairCountAccum(counts, cnts[p.lca], ku, kv, nv, 0, t.nodes[p.lca].rows)
	block := pool.GetF64Zeroed(du * dv)
	blockOuterAccum(block, counts, t.nodes[p.u].x, t.nodes[p.v].x, 0, nu)
	addBlockAt(out, t.nodes[p.u].offset, t.nodes[p.v].offset, block, du, dv)
	pool.PutF64(block)
	pool.PutF64(counts)
	if ownU {
		pool.PutInt(ku)
	}
	if ownV {
		pool.PutInt(kv)
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
	du := xu.Cols()
	xuRaw, xvRaw := xu.RawData(), xv.RawData()
	for ru := r0; ru < r1; ru++ {
		crow := counts[ru*nv : (ru+1)*nv]
		urow := xuRaw[ru*du : (ru+1)*du]
		for rv, c := range crow {
			if c == 0 {
				continue
			}
			vrow := xvRaw[rv*dv : (rv+1)*dv]
			for i, uv := range urow {
				if uv == 0 {
					continue
				}
				s := c * uv
				brow := block[i*dv : (i+1)*dv]
				for j, x := range vrow {
					brow[j] += s * x
				}
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
	raw := x.RawData()
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
		xrow := raw[sr*d : sr*d+d]
		drow := dst[fk[r]*d : fk[r]*d+d]
		for j, v := range xrow {
			drow[j] += c * v
		}
	}
}

// scatterRowsAccum pushes a d-wide row table through one edge:
// dst[fk[r]] += src[r] row-wise.
//
//dmml:noalloc
func scatterRowsAccum(dst, src []float64, fk []int, d, lo, hi int) {
	for r := lo; r < hi; r++ {
		srow := src[r*d : (r+1)*d]
		drow := dst[fk[r]*d : fk[r]*d+d]
		for j, v := range srow {
			drow[j] += v
		}
	}
}

// crossMulAccum closes a push: block += aᵀ · x where a is the pushed
// rows×da table at x's granularity.
//
//dmml:noalloc
func crossMulAccum(block, a []float64, x *la.Dense, da, r0, r1 int) {
	dv := x.Cols()
	raw := x.RawData()
	for r := r0; r < r1; r++ {
		arow := a[r*da : (r+1)*da]
		xrow := raw[r*dv : (r+1)*dv]
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
