package core

import (
	"pgvn/internal/expr"
	"pgvn/internal/ir"
	"pgvn/internal/obs"
)

// processOutgoingEdges re-evaluates the reachability and predicate of every
// outgoing edge of block b (paper Figure 5). Edges are addressed by their
// dense arena ids; index k of SuccEdgeIDs is the edge at Succs[k].
//
//pgvn:hotpath
func (a *analysis) processOutgoingEdges(b ir.BlockID) {
	ar := a.ar
	term := ar.TermOf(b)
	if term == ir.NoInstr || ar.Op(term) == ir.OpReturn {
		return
	}
	for out, eid := range ar.SuccEdgeIDs(b) {
		if a.evaluateEdgeReachability(term, out) && !a.edgeReach[eid] {
			a.markEdgeReachable(eid)
		}
		if a.cfg.usesPredicates() {
			p := a.evaluateEdgePredicate(term, out)
			if p != nil {
				if _, isConst := p.IsConst(); isConst {
					p = nil // a constant predicate carries no information
				} else if p.IsBottom() {
					p = nil
				}
			}
			// Predicates are canonical interned nodes, so "same predicate"
			// is pointer equality.
			if a.edgePred[eid] != p {
				a.edgePred[eid] = p
				if a.tr != nil {
					note := ""
					if p != nil {
						note = p.Key()
					}
					a.tr.Emit(obs.KindEdgePred, a.stats.Passes, int(b), -1, int64(ar.EdgeTo(eid)), note)
				}
				a.propagateChangeInEdge(eid)
			}
		}
	}
}

// markEdgeReachable adds e to REACHABLE, making its destination reachable
// (touching it wholesale) or re-touching the destination's φs, and
// propagates the change (Figure 5 lines 04–15).
//
//pgvn:hotpath
func (a *analysis) markEdgeReachable(e ir.EdgeID) {
	ar := a.ar
	a.edgeReach[e] = true
	if a.tr != nil {
		a.tr.Emit(obs.KindEdgeReach, a.stats.Passes, int(ar.EdgeFrom(e)), -1, int64(ar.EdgeTo(e)), "")
	}
	d := ar.EdgeTo(e)
	if !a.blockReach[d] {
		a.blockReach[d] = true
		if a.tr != nil {
			a.tr.Emit(obs.KindBlockReach, a.stats.Passes, int(d), -1, 0, "")
		}
		a.touchBlock(d)
		for _, i := range ar.InstrIDsOf(d) {
			a.touchInstr(i)
		}
	} else {
		for _, phi := range ar.PhiIDsOf(d) {
			a.touchInstr(phi)
		}
		// The destination's predicate may change now that it has
		// another reachable incoming edge.
		a.touchBlock(d)
	}
	a.propagateChangeInEdge(e)
	if a.incDom != nil {
		a.incDom.InsertEdge(ar.EdgePtr(e))
	}
}

// propagateChangeInEdge re-touches whatever a change in the reachability or
// predicate of edge e may affect (Figure 5, Propagate change in edge).
// The complete algorithm touches the instructions of blocks dominated by
// the destination and the blocks that postdominate it; the practical
// algorithm conservatively touches everything downstream of the
// destination in RPO. Predicate-dependent analyses are the only consumers,
// so nothing needs touching when they are all disabled (footnote 7 and
// §2.9 emulations).
//
//pgvn:hotpath
func (a *analysis) propagateChangeInEdge(e ir.EdgeID) {
	if !a.cfg.usesPredicates() {
		return
	}
	if !a.cfg.Sparse {
		a.touchEverything()
		return
	}
	ar := a.ar
	d := ar.EdgeTo(e)
	if a.cfg.Complete {
		dp := ar.BlockPtr(d)
		for _, bID := range a.rpoIDs {
			bp := ar.BlockPtr(bID)
			if a.domTree.Contains(dp) && a.domTree.Contains(bp) && a.domTree.Dominates(dp, bp) {
				a.touchBlock(bID)
				for _, i := range ar.InstrIDsOf(bID) {
					a.touchInstr(i)
				}
			} else if a.postTree.Dominates(bp, dp) {
				a.touchBlock(bID)
			}
		}
		return
	}
	dRPO := a.rpoNum[d]
	if dRPO < 0 {
		return
	}
	for _, bID := range a.rpoIDs[dRPO:] {
		a.touchBlock(bID)
		a.touchAllIn(bID)
	}
}

// evaluateEdgeReachability decides whether the out'th outgoing edge of
// term's block is reachable given the current value of the terminator's
// controlling expression. Unknown (⊥) conditions optimistically keep
// edges unreachable — the branch will be re-touched when the condition is
// determined.
//
//pgvn:hotpath
func (a *analysis) evaluateEdgeReachability(term ir.InstrID, out int) bool {
	ar := a.ar
	switch ar.Op(term) {
	case ir.OpJump:
		return true
	case ir.OpBranch:
		cond := a.leaderExpr(ar.Arg(term, 0))
		if cond.IsBottom() {
			return false
		}
		if c, ok := cond.IsConst(); ok {
			taken := 0
			if c == 0 {
				taken = 1
			}
			return out == taken
		}
		return true
	case ir.OpSwitch:
		sel := a.leaderExpr(ar.Arg(term, 0))
		if sel.IsBottom() {
			return false
		}
		if c, ok := sel.IsConst(); ok {
			cases := ar.CasesOf(term)
			for k, cv := range cases {
				if cv == c {
					return out == k
				}
			}
			return out == len(cases) // default
		}
		return true
	}
	return false
}

// evaluateEdgePredicate computes the canonical predicate expression of
// the out'th outgoing edge of term's block (paper §2.7/§2.8): the
// canonicalized condition for the true edge of a conditional jump, its
// negation for the false edge, selector equalities for switch cases and a
// conjunction of disequalities for the switch default. Edges of
// unconditional jumps (or with undetermined conditions) have no
// predicate.
//
//pgvn:hotpath
func (a *analysis) evaluateEdgePredicate(term ir.InstrID, out int) *expr.Expr {
	ar := a.ar
	switch ar.Op(term) {
	case ir.OpBranch:
		p := a.branchCondition(term)
		if p == nil {
			return nil
		}
		if out == 1 {
			if p.Kind != expr.Compare {
				return nil
			}
			return a.in.NegateCompare(p)
		}
		return p
	case ir.OpSwitch:
		sel := a.leaderExpr(ar.Arg(term, 0))
		if sel.IsBottom() {
			return nil
		}
		cases := ar.CasesOf(term)
		if out < len(cases) {
			return a.in.Compare(ir.OpEq, a.in.Const(cases[out]), sel)
		}
		// Default edge: selector differs from every case (§3's switch
		// extension of φ-predication).
		base := len(a.predParts)
		for _, cv := range cases {
			a.predParts = append(a.predParts, a.in.Compare(ir.OpNe, a.in.Const(cv), sel))
		}
		p := a.in.And(a.predParts[base:]...)
		a.predParts = a.predParts[:base]
		return p
	}
	return nil
}

// branchCondition reconstructs the canonical comparison controlling a
// conditional jump: the condition instruction's comparison re-evaluated
// over current leaders, or (cond ≠ 0) for a branch on a non-comparison
// value.
//
//pgvn:hotpath
func (a *analysis) branchCondition(term ir.InstrID) *expr.Expr {
	ar := a.ar
	cv := ar.Arg(term, 0)
	cl := a.leaderExpr(cv)
	if cl.IsBottom() {
		return nil
	}
	if _, ok := cl.IsConst(); ok {
		return cl
	}
	// Re-evaluate the controlling comparison at the branch's block (the
	// paper symbolically evaluates PREDICATE[E] in B), so the predicate
	// uses current leaders improved by inference at B.
	cvOp := ar.Op(cv)
	if cvOp.IsCompare() {
		b := ar.BlockOf(term)
		x := a.operandAtom(ar.Arg(cv, 0), b)
		y := a.operandAtom(ar.Arg(cv, 1), b)
		if !x.IsBottom() && !y.IsBottom() {
			return a.in.Compare(cvOp, x, y)
		}
	}
	// A branch on a value whose class was defined by a comparison
	// elsewhere (a copy or φ reduction of a predicate).
	if c := a.classOf[cv]; c != nil && c.expr != nil && c.expr.Kind == expr.Compare {
		return c.expr
	}
	return a.in.Compare(ir.OpNe, a.in.Const(0), cl)
}
