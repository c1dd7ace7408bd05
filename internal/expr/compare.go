package expr

import (
	"math"

	"pgvn/internal/ir"
)

// canonCompare canonicalizes the comparison a op b over two atoms (Value
// or Const expressions) and either folds (non-nil fourth result) or
// returns the canonical operator and operand order to build. The rules
// (paper §2.8):
//
//   - constant/constant and identical-operand comparisons fold;
//   - operands are ordered by increasing rank (constants rank 0), with the
//     operator reversed on swap, so Y > X and X < Y hash identically;
//   - strict comparisons against a constant are normalized to non-strict
//     ones (c < x becomes c+1 ≤ x), folding to a constant truth value at
//     the int64 extremes.
//
// newConst supplies constant results, so an Interner can route folds into
// its own universe (small constants are shared atoms either way).
func canonCompare(op ir.Op, a, b *Expr, newConst func(int64) *Expr) (ir.Op, *Expr, *Expr, *Expr) {
	if !op.IsCompare() {
		panic("expr: Compare with non-comparison " + op.String())
	}
	ca, aConst := a.IsConst()
	cb, bConst := b.IsConst()
	if aConst && bConst {
		return op, a, b, newConst(foldCompare(op, ca, cb))
	}
	if sameAtom(a, b) {
		switch op {
		case ir.OpEq, ir.OpLe, ir.OpGe:
			return op, a, b, newConst(1)
		default:
			return op, a, b, newConst(0)
		}
	}
	if rankOf(a) > rankOf(b) {
		a, b = b, a
		op = op.Reverse()
	}
	// After ordering, a constant operand (rank 0) is on the left.
	if c, ok := a.IsConst(); ok {
		switch op {
		case ir.OpLt: // c < x  ⇔  c+1 ≤ x
			if c == math.MaxInt64 {
				return op, a, b, newConst(0)
			}
			a, op = newConst(c+1), ir.OpLe
		case ir.OpGt: // c > x  ⇔  c-1 ≥ x
			if c == math.MinInt64 {
				return op, a, b, newConst(0)
			}
			a, op = newConst(c-1), ir.OpGe
		}
		if c, _ := a.IsConst(); c == math.MinInt64 && op == ir.OpLe {
			return op, a, b, newConst(1)
		} else if c == math.MaxInt64 && op == ir.OpGe {
			return op, a, b, newConst(1)
		}
	}
	return op, a, b, nil
}

func rankOf(e *Expr) int {
	if e.Kind == Const {
		return 0
	}
	return e.Rank
}

func foldCompare(op ir.Op, a, b int64) int64 {
	var v bool
	switch op {
	case ir.OpEq:
		v = a == b
	case ir.OpNe:
		v = a != b
	case ir.OpLt:
		v = a < b
	case ir.OpLe:
		v = a <= b
	case ir.OpGt:
		v = a > b
	case ir.OpGe:
		v = a >= b
	}
	if v {
		return 1
	}
	return 0
}

// relation sets over {<, =, >} encode which orderings of (left, right)
// make a comparison true.
const (
	relLT = 1 << iota
	relEQ
	relGT
)

func relSet(op ir.Op) int {
	switch op {
	case ir.OpEq:
		return relEQ
	case ir.OpNe:
		return relLT | relGT
	case ir.OpLt:
		return relLT
	case ir.OpLe:
		return relLT | relEQ
	case ir.OpGt:
		return relGT
	case ir.OpGe:
		return relGT | relEQ
	}
	return 0
}

// Implies evaluates the comparison q under the assumption that the
// predicate p holds. It returns (truth, true) when q is decided and
// (false, false) when the assumption says nothing about q.
//
// p may be a single canonical Compare or an And of predicates (a switch
// default edge), in which case every conjunct is consulted. q must be a
// canonical Compare.
func Implies(p, q *Expr) (bool, bool) {
	if p == nil || q == nil || q.Kind != Compare {
		return false, false
	}
	if p.Kind == And {
		for _, c := range p.Args {
			if v, ok := Implies(c, q); ok {
				return v, ok
			}
		}
		return false, false
	}
	if p.Kind == Or {
		// A disjunction decides q only when every disjunct decides it
		// identically (used by joint-domination inference over block
		// predicates, whose disjuncts cover the possible arrival paths).
		decided := false
		var verdict bool
		for _, c := range p.Args {
			v, ok := Implies(c, q)
			if !ok {
				return false, false
			}
			if decided && v != verdict {
				return false, false
			}
			decided, verdict = true, v
		}
		return verdict, decided
	}
	if p.Kind != Compare {
		return false, false
	}

	pa, pb := p.Args[0], p.Args[1]
	qa, qb := q.Args[0], q.Args[1]

	// Case A: same operand pair (canonical ordering makes the pair
	// appear in the same order in both predicates).
	if sameAtom(pa, qa) && sameAtom(pb, qb) {
		sp, sq := relSet(p.Op), relSet(q.Op)
		if sp&^sq == 0 {
			return true, true
		}
		if sp&sq == 0 {
			return false, true
		}
		return false, false
	}

	// Case B: both predicates constrain the same value against (possibly
	// different) constants: c1 op x vs c2 op' x.
	if pa.Kind == Const && qa.Kind == Const && sameAtom(pb, qb) {
		sp, ok1 := constraintSet(p.Op, pa.C)
		sq, ok2 := constraintSet(q.Op, qa.C)
		if ok1 && ok2 {
			if sp.subsetOf(sq) {
				return true, true
			}
			if sp.disjointFrom(sq) {
				return false, true
			}
		}
	}
	return false, false
}

// valSet describes the set of x satisfying "c op x": either an interval
// [lo, hi] or the complement of a single point.
type valSet struct {
	notPoint bool
	point    int64 // when notPoint
	lo, hi   int64 // when interval
}

func constraintSet(op ir.Op, c int64) (valSet, bool) {
	switch op {
	case ir.OpEq:
		return valSet{lo: c, hi: c}, true
	case ir.OpNe:
		return valSet{notPoint: true, point: c}, true
	case ir.OpLe: // c ≤ x
		return valSet{lo: c, hi: math.MaxInt64}, true
	case ir.OpGe: // c ≥ x
		return valSet{lo: math.MinInt64, hi: c}, true
	case ir.OpLt: // c < x (defensive; canonical form avoids it)
		if c == math.MaxInt64 {
			return valSet{}, false
		}
		return valSet{lo: c + 1, hi: math.MaxInt64}, true
	case ir.OpGt:
		if c == math.MinInt64 {
			return valSet{}, false
		}
		return valSet{lo: math.MinInt64, hi: c - 1}, true
	}
	return valSet{}, false
}

func (s valSet) subsetOf(t valSet) bool {
	switch {
	case !s.notPoint && !t.notPoint:
		return s.lo >= t.lo && s.hi <= t.hi
	case !s.notPoint && t.notPoint:
		return t.point < s.lo || t.point > s.hi
	case s.notPoint && t.notPoint:
		return s.point == t.point
	default: // s complement, t interval: only if t is the full domain
		return t.lo == math.MinInt64 && t.hi == math.MaxInt64
	}
}

func (s valSet) disjointFrom(t valSet) bool {
	switch {
	case !s.notPoint && !t.notPoint:
		return s.hi < t.lo || t.hi < s.lo
	case !s.notPoint && t.notPoint:
		return s.lo == s.hi && s.lo == t.point
	case s.notPoint && !t.notPoint:
		return t.lo == t.hi && t.lo == s.point
	default:
		return false // two point-complements always intersect
	}
}
