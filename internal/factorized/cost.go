package factorized

import "math"

// Cost model. Flop counts alone undersell the join-pushdown trade-off: the
// per-edge gather/group passes touch their target tables by foreign key, and
// a random access into a table that spills the working cache costs several
// multiply-adds' worth of stalled cycles. Every randomly indexed element is
// therefore charged gatherNear or gatherFar flop-equivalents depending on
// whether its target table fits gatherCacheBytes — the correction that keeps
// the planner from preferring factorization on wide fact tables whose
// group-sums move d_S-wide rows through memory.
const (
	gatherNear       = 2.0 // target table cache-resident: ~one fused multiply-add
	gatherFar        = 8.0 // target table spills: charge the likely miss
	gatherCacheBytes = 1 << 20
)

// gatherCost returns the flop-equivalent charge per randomly indexed element
// of a table of the given byte size.
func gatherCost(tableBytes float64) float64 {
	if tableBytes <= gatherCacheBytes {
		return gatherNear
	}
	return gatherFar
}

// flopsPair models one MatVec+VecMat pair (computed once at construction):
// 4·rows·cols per relation (2 flops per cell per direction) plus the
// gather-and-scatter pass over each edge at parent granularity.
func (t *JoinTree) flopsPair() float64 {
	f := 0.0
	for i := range t.nodes {
		nd := &t.nodes[i]
		f += 4 * float64(nd.rows) * float64(nd.cols)
		if i != 0 {
			pr := float64(t.nodes[nd.parent].rows)
			f += 2 * pr * gatherCost(8*float64(nd.rows))
		}
	}
	return f
}

// FlopsPerMatVec estimates the cost of one factorized X·w + xᵀ·X pair, the
// quantity the cost-based planner compares against the materialized
// estimate. Gather/group passes are charged per element actually touched
// (with the cache correction above), not a flat 2·n.
func (t *JoinTree) FlopsPerMatVec() float64 { return t.flopsFact }

// FlopsPerMatVecMaterialized estimates the same pair over the joined matrix.
func (t *JoinTree) FlopsPerMatVecMaterialized() float64 { return t.flopsMat }

// Speedup is the predicted factorized-vs-materialized per-iteration ratio
// (>1 means pushing down wins).
func (t *JoinTree) Speedup() float64 { return t.flopsMat / t.flopsFact }

// FlopsPerGram estimates the factorized XᵀX: the count pushes, one weighted
// syrk per relation, and the cross tasks as GramInto runs them — count
// passes, and push chains that pay for a shared first hop once — so the
// model tracks the execution, including the n·d_S-sized group-sums the old
// flat 2·n estimate ignored.
func (t *JoinTree) FlopsPerGram() float64 {
	f := 0.0
	for _, v := range t.order[1:] {
		nd := &t.nodes[v]
		f += float64(t.nodes[nd.parent].rows) * gatherCost(8*float64(nd.rows))
	}
	for i := range t.nodes {
		nd := &t.nodes[i]
		f += float64(nd.rows) * float64(nd.cols) * float64(nd.cols)
	}
	return f + t.crossCost
}

// taskFlops models one cross task: a count pass, or a push chain's key
// composition and first hop (once), each member's further hops from where it
// resumes, and each member's closing product.
func (t *JoinTree) taskFlops(ch *crossTask) float64 {
	p := &t.cross[ch.plans[0]]
	if p.kind == crossCount {
		ra := float64(t.nodes[p.lca].rows)
		nu, nv := t.nodes[p.u].rows, t.nodes[p.v].rows
		keyWork := float64(len(p.pathU)+len(p.pathV)) * ra
		pairs := math.Min(ra, float64(nu)*float64(nv))
		return keyWork + ra*gatherCost(8*float64(nu)*float64(nv)) +
			2*pairs*float64(t.nodes[p.u].cols)*float64(t.nodes[p.v].cols)
	}
	du := float64(t.nodes[p.src].cols)
	hop := func(parent, c int) float64 {
		return float64(t.nodes[parent].rows) * du * gatherCost(8*float64(t.nodes[c].rows)*du)
	}
	f := float64(len(p.pathU))*float64(t.nodes[p.lca].rows) + hop(p.lca, p.pathV[0])
	for _, i := range ch.plans {
		p := &t.cross[i]
		for k := p.extFrom; k < len(p.pathV); k++ {
			f += hop(p.pathV[k-1], p.pathV[k])
		}
		end := &t.nodes[p.pathV[len(p.pathV)-1]]
		f += 2 * float64(end.rows) * du * float64(end.cols)
	}
	return f
}

// FlopsPerGramMaterialized estimates XᵀX over the joined matrix (syrk).
func (t *JoinTree) FlopsPerGramMaterialized() float64 {
	return float64(t.nodes[0].rows) * float64(t.total) * float64(t.total)
}

// ResidentBytes is the footprint of the normalized representation: every
// relation's feature block plus the fk columns.
func (t *JoinTree) ResidentBytes() int64 {
	var b int64
	for i := range t.nodes {
		nd := &t.nodes[i]
		b += int64(8 * nd.rows * nd.cols)
		b += int64(8 * len(nd.fk))
	}
	return b
}
