package core

import (
	"pgvn/internal/expr"
	"pgvn/internal/ir"
)

// evaluate performs symbolic evaluation of the expression computed by
// value-producing instruction i (paper Figure 4): operands are replaced by
// class leaders (improved by value inference), constant folding, algebraic
// simplification and global reassociation are applied, φ-functions get the
// unreachable-argument/same-argument/φ-predication treatment, and
// predicates are subjected to predicate inference.
//
// It returns ⊥ while the value cannot be determined yet (an operand is
// still in INITIAL, or every φ argument is ignorable). Every non-⊥ result
// is a canonical node of the analysis's interner, so congruence finding is
// a pointer-keyed map probe.
//
//pgvn:hotpath
func (a *analysis) evaluate(i ir.InstrID) *expr.Expr {
	ar := a.ar
	b := ar.BlockOf(i)
	op := ar.Op(i)
	switch op {
	case ir.OpConst:
		return a.in.Const(ar.ConstOf(i))

	case ir.OpParam:
		return a.in.Unique(int(i))

	case ir.OpPhi:
		return a.evaluatePhi(i)

	case ir.OpCopy:
		return a.operandAtom(ar.Arg(i, 0), b)

	case ir.OpNeg:
		x := a.operandForAlgebra(ar.Arg(i, 0), b)
		if x.IsBottom() {
			return a.hashOnly(i, expr.Bot)
		}
		if a.cfg.Fold {
			if e := a.in.Neg(x); e != nil {
				return a.hashOnly(i, e)
			}
		}
		base := len(a.argbuf)
		a.argbuf = append(a.argbuf, a.operandAtom(ar.Arg(i, 0), b))
		e := a.in.Opaque(ir.OpNeg, "", a.argbuf[base:])
		a.argbuf = a.argbuf[:base]
		return a.hashOnly(i, e)

	case ir.OpAdd, ir.OpSub, ir.OpMul:
		xa := a.operandAtom(ar.Arg(i, 0), b)
		ya := a.operandAtom(ar.Arg(i, 1), b)
		if xa.IsBottom() || ya.IsBottom() {
			return a.hashOnly(i, expr.Bot)
		}
		if a.cfg.Fold {
			if pa := a.phiArithmetic(op, xa, ya); pa != nil {
				return a.hashOnly(i, pa)
			}
			x := a.operandForAlgebra(ar.Arg(i, 0), b)
			y := a.operandForAlgebra(ar.Arg(i, 1), b)
			var e *expr.Expr
			switch op {
			case ir.OpAdd:
				e = a.in.Add(x, y, a.cfg.ReassocLimit)
			case ir.OpSub:
				e = a.in.Sub(x, y, a.cfg.ReassocLimit)
			case ir.OpMul:
				e = a.in.Mul(x, y, a.cfg.ReassocLimit)
			}
			if e != nil {
				return a.hashOnly(i, e)
			}
		}
		return a.hashOnly(i, a.opaqueBinop(i, b))

	case ir.OpDiv, ir.OpMod:
		x := a.operandAtom(ar.Arg(i, 0), b)
		y := a.operandAtom(ar.Arg(i, 1), b)
		if x.IsBottom() || y.IsBottom() {
			return a.hashOnly(i, expr.Bot)
		}
		if a.cfg.Fold {
			base := len(a.argbuf)
			a.argbuf = append(a.argbuf, x, y)
			e := a.in.Opaque(op, "", a.argbuf[base:])
			a.argbuf = a.argbuf[:base]
			return a.hashOnly(i, e)
		}
		return a.hashOnly(i, a.opaqueBinop(i, b))

	case ir.OpEq, ir.OpNe, ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe:
		return a.hashOnly(i, a.evaluateCompare(i))

	case ir.OpCall:
		base := len(a.argbuf)
		for _, v := range ar.ArgIDs(i) {
			av := a.operandAtom(v, b)
			if av.IsBottom() {
				a.argbuf = a.argbuf[:base]
				return a.hashOnly(i, expr.Bot)
			}
			a.argbuf = append(a.argbuf, av)
		}
		e := a.in.Opaque(ir.OpCall, ar.NameOf(i), a.argbuf[base:])
		a.argbuf = a.argbuf[:base]
		return a.hashOnly(i, e)
	}
	// VarRead/VarWrite never reach here (SSA verified); defensive.
	return a.in.Unique(int(i))
}

// hashOnly implements the Wegman–Zadeck emulation (§2.9): non-constant
// expressions are replaced by the instruction's own value, so only
// constants are ever congruent.
//
//pgvn:hotpath
func (a *analysis) hashOnly(i ir.InstrID, e *expr.Expr) *expr.Expr {
	if !a.cfg.HashOnly || e.IsBottom() {
		return e
	}
	if _, isConst := e.IsConst(); isConst {
		return e
	}
	return a.in.Unique(int(i))
}

// opaqueBinop builds the no-folding expression for a binary operation:
// operand order canonicalized for commutative operators (by rank) so that
// pure optimistic value numbering still sees add(x,y) = add(y,x).
//
//pgvn:hotpath
func (a *analysis) opaqueBinop(i ir.InstrID, b ir.BlockID) *expr.Expr {
	ar := a.ar
	x := a.operandAtom(ar.Arg(i, 0), b)
	y := a.operandAtom(ar.Arg(i, 1), b)
	if x.IsBottom() || y.IsBottom() {
		return expr.Bot
	}
	op := ar.Op(i)
	if op.IsCommutative() && atomRank(x) > atomRank(y) {
		x, y = y, x
	}
	base := len(a.argbuf)
	a.argbuf = append(a.argbuf, x, y)
	e := a.in.Opaque(op, "", a.argbuf[base:])
	a.argbuf = a.argbuf[:base]
	return e
}

func atomRank(e *expr.Expr) int {
	if e.Kind == expr.Const {
		return 0
	}
	return e.Rank
}

// evaluateCompare handles the six comparison operators: operands via
// value inference, difference-based folding through the reassociation
// algebra ((x+1) < (x+2) folds), canonical predicate construction, then
// predicate inference against dominating edges.
//
//pgvn:hotpath
func (a *analysis) evaluateCompare(i ir.InstrID) *expr.Expr {
	ar := a.ar
	b := ar.BlockOf(i)
	op := ar.Op(i)
	x := a.operandAtom(ar.Arg(i, 0), b)
	y := a.operandAtom(ar.Arg(i, 1), b)
	if x.IsBottom() || y.IsBottom() {
		return expr.Bot
	}
	if a.cfg.Fold && a.cfg.Reassociate {
		xs := a.operandForAlgebra(ar.Arg(i, 0), b)
		ys := a.operandForAlgebra(ar.Arg(i, 1), b)
		if !xs.IsBottom() && !ys.IsBottom() {
			if d := a.in.Sub(xs, ys, a.cfg.ReassocLimit); d != nil {
				if c, ok := d.IsConst(); ok {
					return a.in.Compare(op, a.in.Const(c), a.in.Const(0))
				}
			}
		}
	}
	var e *expr.Expr
	if a.cfg.Fold {
		e = a.in.Compare(op, x, y)
	} else {
		// No folding: hash the comparison structurally (still with
		// commutative canonicalization for = and ≠).
		if op.IsCommutative() && atomRank(x) > atomRank(y) {
			x, y = y, x
		}
		base := len(a.argbuf)
		a.argbuf = append(a.argbuf, x, y)
		e = a.in.Opaque(op, "", a.argbuf[base:])
		a.argbuf = a.argbuf[:base]
	}
	if e.Kind == expr.Compare && a.cfg.PredicateInference {
		e = a.inferValueOfPredicate(e, int32(b))
	}
	return e
}

// evaluatePhi implements the φ treatment of Figure 4: cyclic φs are unique
// under balanced/pessimistic numbering; arguments on unreachable edges are
// ignored; arguments are improved by inference at their edges; the
// argument order follows CANONICAL; the tag is the block predicate when
// φ-predication produced one, otherwise the block itself; and a φ whose
// remaining arguments agree reduces to that argument.
//
//pgvn:hotpath
func (a *analysis) evaluatePhi(i ir.InstrID) *expr.Expr {
	ar := a.ar
	b := ar.BlockOf(i)
	if a.cfg.Mode != Optimistic && a.hasBackIn[b] {
		return a.in.Unique(int(i)) // cyclic φ under balanced/pessimistic
	}
	predStart := ar.PredStart(b)
	base := len(a.phiArgs)
	var same *expr.Expr // the arguments' common leader; Bot once they differ
	if canon := a.canonicalIn(b); canon != nil {
		for _, eid := range canon {
			if !a.edgeReach[eid] {
				continue
			}
			av := a.inferValueAtEdge(ar.Arg(i, int(eid-predStart)), eid)
			if av.IsBottom() {
				// Optimistically ignore ⊥ (its definition will re-touch
				// this φ when it becomes determined).
				continue
			}
			a.phiArgs = append(a.phiArgs, av)
			same = a.sameLeader(same, ar.Arg(i, int(eid-predStart)))
		}
	} else {
		for eid := predStart; eid < ar.PredEnd(b); eid++ {
			if !a.edgeReach[eid] {
				continue
			}
			av := a.inferValueAtEdge(ar.Arg(i, int(eid-predStart)), eid)
			if av.IsBottom() {
				continue
			}
			a.phiArgs = append(a.phiArgs, av)
			same = a.sameLeader(same, ar.Arg(i, int(eid-predStart)))
		}
	}
	if len(a.phiArgs) == base {
		return expr.Bot
	}
	var e *expr.Expr
	if same != expr.Bot && a.leaderExpr(i) == same {
		// Every argument is congruent to one leader and the φ already
		// sits in its class: it stays there. Inference only rewrites
		// an argument to a value equal to it on its edge, so the φ is
		// still that leader; splitting it off is non-monotone (the
		// split can unmake the congruence the rewrite relied on, and
		// the fixpoint then oscillates forever).
		e = same
	} else {
		e = a.in.Phi(a.phiTag(b), a.phiArgs[base:])
	}
	a.phiArgs = a.phiArgs[:base]
	if e.Kind == expr.Value {
		// §3: when an expression reduces to a variable, value inference
		// can be reapplied to it (here: at the φ's own block).
		e = a.inferAtomAtBlock(e, int32(b))
	}
	return e
}

// sameLeader folds argument v into the running common leader of a φ's
// non-⊥ arguments: nil before the first, Bot once two differ.
//
//pgvn:hotpath
func (a *analysis) sameLeader(same *expr.Expr, v ir.InstrID) *expr.Expr {
	l := a.leaderExpr(v)
	if same == nil || same == l {
		return l
	}
	return expr.Bot
}

// phiTag returns the φ tag of a block: its predicate when φ-predication
// computed one, else the block itself (preventing congruence of φs in
// blocks whose predicates are unknown, §2.2).
//
//pgvn:hotpath
func (a *analysis) phiTag(b ir.BlockID) *expr.Expr {
	if a.cfg.PhiPredication {
		if p := a.blockPred[b]; p != nil {
			return p
		}
	}
	return a.in.BlockTag(int(b))
}

// canonicalIn returns the block's incoming edges in CANONICAL order when
// φ-predication established one, otherwise nil (meaning: iterate the
// natural [PredStart, PredEnd) range, which is predecessor order).
//
//pgvn:hotpath
func (a *analysis) canonicalIn(b ir.BlockID) []ir.EdgeID {
	if a.cfg.PhiPredication {
		if c := a.canonical[b]; c != nil && a.blockPred[b] != nil {
			return c
		}
	}
	return nil
}

// operandAtom symbolically evaluates operand v as used in block b: value
// inference (Figure 7) then the class leader.
//
//pgvn:hotpath
func (a *analysis) operandAtom(v ir.InstrID, b ir.BlockID) *expr.Expr {
	if a.cfg.ValueInference {
		return a.inferValueAtBlock(v, b)
	}
	return a.leaderExpr(v)
}

// operandForAlgebra returns the view of operand v that participates in
// reassociation: the constant leader, the defining sum-of-products under
// forward propagation, or the leader atom.
//
//pgvn:hotpath
func (a *analysis) operandForAlgebra(v ir.InstrID, b ir.BlockID) *expr.Expr {
	atom := a.operandAtom(v, b)
	if atom.IsBottom() {
		return expr.Bot
	}
	if _, ok := atom.IsConst(); ok {
		return atom
	}
	if !a.cfg.Reassociate || atom.Kind != expr.Value {
		return atom
	}
	c := a.classOf[atom.ValueID()]
	if c == nil || c.expr == nil {
		return atom
	}
	// Forward propagation: substitute the defining expression when it is
	// inside the algebra and small enough (footnote 4).
	if c.expr.Kind == expr.Sum && len(c.expr.Terms) <= a.cfg.ReassocLimit {
		return c.expr
	}
	return atom
}
