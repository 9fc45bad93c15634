package factorized

import (
	"fmt"
	"sync"

	"dmml/internal/la"
)

// Node is one relation in a join tree. X may be nil for a key-only relation
// (a pure link table with no features); Rows must then be positive. When X is
// non-nil, Rows is optional and must match X.Rows() if set.
type Node struct {
	X    *la.Dense
	Rows int
}

// Edge is a PK–FK link: FK has one entry per row of the parent relation,
// each indexing a row of the child relation. The joined view of a parent row
// r includes the child row FK[r] (and, transitively, that row's own
// children), so facts join dimensions through any number of intermediate
// levels.
type Edge struct {
	Parent, Child int
	FK            []int
}

// treeNode is the internal per-relation state.
type treeNode struct {
	x        *la.Dense
	rows     int
	cols     int
	offset   int   // column offset of this relation's block in the joined view
	parent   int   // -1 for the root
	fk       []int // edge from parent to this node; len = parent rows
	children []int
	depth    int
}

// crossKind selects the Gram cross-block strategy for one node pair.
type crossKind uint8

const (
	// crossAncestor: one node of the pair is an ancestor of the other; its
	// cnt-weighted feature rows are pushed down the path edge by edge.
	crossAncestor crossKind = iota
	// crossCount: siblings under an LCA with a small key space; pair
	// co-occurrence counts are accumulated in a dense nu×nv scratch array
	// (the counting-pass successor of the old map[int64]float64).
	crossCount
	// crossPush: siblings whose key space is too large to count densely;
	// the shallower-indexed node's features are gathered at LCA granularity
	// (fused into the first hop) and pushed down the other side.
	crossPush
)

// crossPlan precomputes, per unordered node pair with features, how GramInto
// builds the off-diagonal block — so the hot path does no tree walking and no
// allocation.
type crossPlan struct {
	u, v  int // node ids, u < v; block written at (offset[u], offset[v])
	kind  crossKind
	lca   int
	src   int   // the node whose features ride the push (ancestor or u)
	pathU []int // lca→u, exclusive of lca (key-composition side; crossCount/crossPush)
	pathV []int // lca→v (push side), exclusive of lca; crossAncestor/crossPush/crossCount
	// maxPathRows sizes the push ping-pong buffers: the largest row count
	// among pathV's relations.
	maxPathRows int
}

// JoinTree is a normalized design matrix over an acyclic (snowflake) schema:
// a root fact relation joined to feature relations through PK–FK edges. The
// logical materialized matrix is, per fact row, the concatenation of every
// relation's feature block in node order; the kernels compute X·w, xᵀX and
// XᵀX against that logical matrix by pushing partial aggregates through the
// tree, so per-iteration cost scales with base-table sizes rather than the
// join size.
type JoinTree struct {
	nodes []treeNode
	order []int // topological: parents before children, order[0] == 0
	total int   // joined feature width
	cross []crossPlan

	// accMu guards accFree, a freelist of per-node slice tables reused
	// across kernel calls so the steady state allocates nothing. (sync.Pool
	// would box the slice header on every Put.)
	accMu   sync.Mutex
	accFree [][][]float64

	flopsFact float64 // cached FlopsPerMatVec
	flopsMat  float64 // cached FlopsPerMatVecMaterialized
}

// NewJoinTree validates and assembles a join tree. nodes[0] is the root
// (fact) relation; every other node must be reachable from it through
// exactly one parent edge, which makes the join acyclic by construction.
func NewJoinTree(nodes []Node, edges []Edge) (*JoinTree, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("factorized: join tree needs at least a root relation")
	}
	t := &JoinTree{nodes: make([]treeNode, len(nodes))}
	for i, nd := range nodes {
		rows := nd.Rows
		cols := 0
		if nd.X != nil {
			r, c := nd.X.Dims()
			if rows != 0 && rows != r {
				return nil, fmt.Errorf("factorized: node %d declares %d rows but its matrix has %d", i, rows, r)
			}
			rows, cols = r, c
		}
		if rows <= 0 {
			return nil, fmt.Errorf("factorized: node %d needs positive rows (key-only relations must set Rows)", i)
		}
		t.nodes[i] = treeNode{x: nd.X, rows: rows, cols: cols, parent: -1}
	}
	for _, e := range edges {
		if e.Parent < 0 || e.Parent >= len(nodes) || e.Child < 0 || e.Child >= len(nodes) {
			return nil, fmt.Errorf("factorized: edge %d→%d references a missing node", e.Parent, e.Child)
		}
		if e.Child == 0 {
			return nil, fmt.Errorf("factorized: node 0 is the root and cannot be an edge child")
		}
		if e.Child == e.Parent {
			return nil, fmt.Errorf("factorized: self edge on node %d", e.Child)
		}
		c := &t.nodes[e.Child]
		if c.parent != -1 {
			return nil, fmt.Errorf("factorized: node %d has two parent edges", e.Child)
		}
		p := &t.nodes[e.Parent]
		if len(e.FK) != p.rows {
			return nil, fmt.Errorf("factorized: edge %d→%d fk has %d entries for %d parent rows", e.Parent, e.Child, len(e.FK), p.rows)
		}
		for i, r := range e.FK {
			if r < 0 || r >= c.rows {
				return nil, fmt.Errorf("factorized: edge %d→%d fk row %d references child row %d (relation has %d)", e.Parent, e.Child, i, r, c.rows)
			}
		}
		c.parent = e.Parent
		c.fk = e.FK
		p.children = append(p.children, e.Child)
	}

	// BFS from the root: assigns depth, builds the topological order, and —
	// because every non-root node has exactly one parent edge — proves the
	// edge set is a connected, acyclic tree.
	t.order = append(t.order, 0)
	for at := 0; at < len(t.order); at++ {
		v := t.order[at]
		for _, c := range t.nodes[v].children {
			t.nodes[c].depth = t.nodes[v].depth + 1
			t.order = append(t.order, c)
		}
	}
	if len(t.order) != len(t.nodes) {
		return nil, fmt.Errorf("factorized: %d of %d relations are not reachable from the root", len(t.nodes)-len(t.order), len(t.nodes))
	}

	// Column offsets in node-index order, so [node0 | node1 | …] matches the
	// star Design's historical layout.
	for i := range t.nodes {
		t.nodes[i].offset = t.total
		t.total += t.nodes[i].cols
	}
	if t.total == 0 {
		return nil, fmt.Errorf("factorized: join tree has no feature columns")
	}

	t.planCross()
	t.flopsFact = t.flopsPair()
	t.flopsMat = 4 * float64(t.nodes[0].rows) * float64(t.total)
	return t, nil
}

// lca returns the lowest common ancestor of u and v.
func (t *JoinTree) lca(u, v int) int {
	for t.nodes[u].depth > t.nodes[v].depth {
		u = t.nodes[u].parent
	}
	for t.nodes[v].depth > t.nodes[u].depth {
		v = t.nodes[v].parent
	}
	for u != v {
		u, v = t.nodes[u].parent, t.nodes[v].parent
	}
	return u
}

// pathDown returns the nodes from a (exclusive) down to v (inclusive); a
// must be an ancestor of v.
func (t *JoinTree) pathDown(a, v int) []int {
	var rev []int
	for at := v; at != a; at = t.nodes[at].parent {
		rev = append(rev, at)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// crossCountMaxKeys caps the dense pair-count array (in float64 cells) used
// by the counting-pass cross blocks.
const crossCountMaxKeys = 1 << 22

// planCross enumerates every featured node pair and fixes the Gram
// cross-block strategy for each.
func (t *JoinTree) planCross() {
	for u := 0; u < len(t.nodes); u++ {
		if t.nodes[u].cols == 0 {
			continue
		}
		for v := u + 1; v < len(t.nodes); v++ {
			if t.nodes[v].cols == 0 {
				continue
			}
			a := t.lca(u, v)
			p := crossPlan{u: u, v: v, lca: a}
			switch {
			case a == u || a == v:
				deep := u + v - a
				p.kind = crossAncestor
				p.src = a
				p.pathV = t.pathDown(a, deep)
			default:
				p.src = u
				p.pathU = t.pathDown(a, u)
				p.pathV = t.pathDown(a, v)
				keys := t.nodes[u].rows * t.nodes[v].rows
				if keys <= t.nodes[a].rows && keys <= crossCountMaxKeys {
					p.kind = crossCount
				} else {
					p.kind = crossPush
				}
			}
			for _, c := range p.pathV {
				if t.nodes[c].rows > p.maxPathRows {
					p.maxPathRows = t.nodes[c].rows
				}
			}
			t.cross = append(t.cross, p)
		}
	}
}

// Rows implements opt.BulkData: the number of joined (root) rows.
func (t *JoinTree) Rows() int { return t.nodes[0].rows }

// Cols implements opt.BulkData: the width of the joined feature vector.
func (t *JoinTree) Cols() int { return t.total }

// getAccs borrows a len(nodes) slice table (all entries nil) from the
// per-tree freelist.
func (t *JoinTree) getAccs() [][]float64 {
	t.accMu.Lock()
	if k := len(t.accFree); k > 0 {
		a := t.accFree[k-1]
		t.accFree[k-1] = nil
		t.accFree = t.accFree[:k-1]
		t.accMu.Unlock()
		return a
	}
	t.accMu.Unlock()
	return make([][]float64, len(t.nodes))
}

// putAccs returns a slice table to the freelist, dropping buffer references.
func (t *JoinTree) putAccs(a [][]float64) {
	for i := range a {
		a[i] = nil
	}
	t.accMu.Lock()
	if len(t.accFree) < 4 {
		t.accFree = append(t.accFree, a)
	}
	t.accMu.Unlock()
}

// Materialize produces the joined dense design matrix (the baseline the
// pushdown kernels are tested against).
func (t *JoinTree) Materialize() *la.Dense {
	out := la.NewDense(t.nodes[0].rows, t.total)
	key := make([]int, len(t.nodes))
	for i := 0; i < t.nodes[0].rows; i++ {
		key[0] = i
		row := out.RowView(i)
		for _, v := range t.order {
			nd := &t.nodes[v]
			if v != 0 {
				key[v] = nd.fk[key[nd.parent]]
			}
			if nd.cols > 0 {
				copy(row[nd.offset:nd.offset+nd.cols], nd.x.RowView(key[v]))
			}
		}
	}
	return out
}
