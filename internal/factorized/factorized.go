// Package factorized implements learning over joins without materializing
// them, reproducing the technique of Orion (Kumar et al., SIGMOD'15) and F
// (Schleich et al., SIGMOD'16) that the paper surveys, generalized from star
// schemas to arbitrary acyclic join trees (snowflakes) à la F/LMFAO: the
// linear-algebra primitives a generalized linear model needs (X·w, xᵀ·X,
// XᵀX) are pushed through the PK–FK structure as partial aggregates — partial
// products per relation, group-sums along each edge, co-occurrence counting
// arrays for cross blocks — so the per-iteration cost scales with
// Σ|R_v|·d_v plus one pass per edge instead of |join|·Σd_v.
package factorized

import (
	"fmt"

	"dmml/internal/la"
)

// NewStar assembles the one-level special case of a join tree: a fact table
// plus K foreign-key-linked dimension tables, fks[k][i] being the dims[k] row
// that fact row i joins. Shapes and key ranges are validated by NewJoinTree.
func NewStar(fact *la.Dense, fks [][]int, dims []*la.Dense) (*JoinTree, error) {
	if len(fks) != len(dims) {
		return nil, fmt.Errorf("factorized: %d fk columns for %d dimension tables", len(fks), len(dims))
	}
	nodes := make([]Node, 1, 1+len(dims))
	nodes[0] = Node{X: fact}
	edges := make([]Edge, len(dims))
	for k, dim := range dims {
		nodes = append(nodes, Node{X: dim})
		edges[k] = Edge{Parent: 0, Child: k + 1, FK: fks[k]}
	}
	return NewJoinTree(nodes, edges)
}
