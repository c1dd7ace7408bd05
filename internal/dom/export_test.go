package dom

import "pgvn/internal/ir"

// NewReachable computes the dominator tree of the subgraph of the routine
// containing only edges for which edgeIn returns true, starting from the
// entry block. Blocks not reachable through such edges are excluded from
// the tree. Only tests build such trees: they are the oracle of the
// incremental tree and of the full tree's edge cases.
func NewReachable(r *ir.Routine, edgeIn func(*ir.Edge) bool) *Tree {
	return newReachable(nil, r, edgeIn)
}
