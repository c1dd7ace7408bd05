package expr

import (
	"sort"

	"pgvn/internal/ir"
)

// This file holds the reference constructors: plain, uninterned builders
// of every expression form, written for clarity rather than speed. The
// Interner is the only constructor the analysis uses; the tests hold its
// canonical forms and simplifications to these, key for key.

// newInterner returns an empty universe sized for roughly hint distinct
// expressions, carving plain chunks.
func newInterner(hint int) *Interner {
	in := &Interner{}
	in.Reset(hint, nil)
	return in
}

// NewValue returns an atom referencing the value v with the given rank.
func NewValue(v *ir.Instr, rank int) *Expr {
	return &Expr{Kind: Value, C: int64(v.ID), Rank: rank}
}

// NewUnique returns the unique expression of value v: congruent to nothing
// but itself.
func NewUnique(v *ir.Instr) *Expr {
	return &Expr{Kind: Unique, C: int64(v.ID)}
}

// NewBlockTag returns the tag expression of block b.
func NewBlockTag(b *ir.Block) *Expr {
	return &Expr{Kind: BlockTag, C: int64(b.ID)}
}

// asSum views e as a Sum term list. The bool result is false when e is not
// representable in the reassociation algebra (⊥, predicates, φs, opaques
// are not; those participate as atoms only when the caller converts them
// to Value atoms first).
func asSum(e *Expr) ([]Term, bool) {
	switch e.Kind {
	case Const:
		if e.C == 0 {
			return nil, true
		}
		return []Term{{Coeff: e.C}}, true
	case Value:
		return []Term{{Coeff: 1, Factors: []ValueRef{{ID: int(e.C), Rank: e.Rank}}}}, true
	case Sum:
		return e.Terms, true
	}
	return nil, false
}

// normalizeSum canonicalizes a copy of terms and lowers degenerate sums
// to Const or Value.
func normalizeSum(terms []Term) *Expr {
	out := normalizeTerms(append([]Term(nil), terms...))
	switch {
	case len(out) == 0:
		return NewConst(0)
	case len(out) == 1 && len(out[0].Factors) == 0:
		return NewConst(out[0].Coeff)
	case len(out) == 1 && out[0].Coeff == 1 && len(out[0].Factors) == 1:
		f := out[0].Factors[0]
		return &Expr{Kind: Value, C: int64(f.ID), Rank: f.Rank}
	}
	return &Expr{Kind: Sum, Terms: append([]Term(nil), out...)}
}

// AddExprs returns a+b in canonical form, or nil if either operand is
// outside the algebra or the result would exceed limit terms (forward
// propagation cancelled, paper footnote 4).
func AddExprs(a, b *Expr, limit int) *Expr {
	ta, ok := asSum(a)
	if !ok {
		return nil
	}
	tb, ok := asSum(b)
	if !ok {
		return nil
	}
	if len(ta)+len(tb) > limit {
		return nil
	}
	return normalizeSum(append(append([]Term(nil), ta...), tb...))
}

// negTerms returns the negation of a term list.
func negTerms(ts []Term) []Term {
	out := make([]Term, len(ts))
	for i, t := range ts {
		out[i] = Term{Coeff: -t.Coeff, Factors: t.Factors}
	}
	return out
}

// SubExprs returns a-b in canonical form, or nil (see AddExprs).
func SubExprs(a, b *Expr, limit int) *Expr {
	ta, ok := asSum(a)
	if !ok {
		return nil
	}
	tb, ok := asSum(b)
	if !ok {
		return nil
	}
	if len(ta)+len(tb) > limit {
		return nil
	}
	return normalizeSum(append(append([]Term(nil), ta...), negTerms(tb)...))
}

// NegExpr returns -a in canonical form, or nil.
func NegExpr(a *Expr) *Expr {
	ta, ok := asSum(a)
	if !ok {
		return nil
	}
	return normalizeSum(negTerms(ta))
}

// MulExprs returns a*b in canonical form by distributing multiplication
// over addition, or nil if outside the algebra or beyond limit terms.
func MulExprs(a, b *Expr, limit int) *Expr {
	ta, ok := asSum(a)
	if !ok {
		return nil
	}
	tb, ok := asSum(b)
	if !ok {
		return nil
	}
	if len(ta)*len(tb) > limit {
		return nil
	}
	var out []Term
	for _, x := range ta {
		for _, y := range tb {
			fs := make([]ValueRef, 0, len(x.Factors)+len(y.Factors))
			fs = append(fs, x.Factors...)
			fs = append(fs, y.Factors...)
			sort.Slice(fs, func(i, j int) bool {
				if fs[i].Rank != fs[j].Rank {
					return fs[i].Rank < fs[j].Rank
				}
				return fs[i].ID < fs[j].ID
			})
			out = append(out, Term{Coeff: x.Coeff * y.Coeff, Factors: fs})
		}
	}
	return normalizeSum(out)
}

// NewOpaque builds an opaque expression (div, mod, call) over atomic
// operands, applying the safe algebraic simplifications that are valid
// under the shared x/0 == x%0 == 0 semantics:
//
//	c1 / c2, c1 % c2   → folded
//	x / 1 → x;  0 / x → 0;  x / x is NOT simplified (0/0 == 0 ≠ 1)
//	x % 1 → 0;  0 % x → 0;  x % x → 0 (0%0 == 0 too)
func NewOpaque(op ir.Op, name string, args []*Expr) *Expr {
	if done := canonOpaque(op, args, NewConst); done != nil {
		return done
	}
	return &Expr{Kind: Opaque, Op: op, Name: name, Args: append([]*Expr(nil), args...)}
}

// NewPhi builds a φ expression with the given tag and arguments (already
// in canonical edge order). If every argument is the same atom the φ
// reduces to that argument.
func NewPhi(tag *Expr, args []*Expr) *Expr {
	if len(args) > 0 {
		same := true
		for _, a := range args[1:] {
			if !sameAtom(a, args[0]) {
				same = false
				break
			}
		}
		if same {
			return args[0]
		}
	}
	all := make([]*Expr, 0, len(args)+1)
	all = append(all, tag)
	all = append(all, args...)
	return &Expr{Kind: Phi, Args: all}
}

// NewCompare builds a canonical comparison predicate over two atoms
// (Value or Const expressions). Canonicalization (paper §2.8):
//
//   - constant/constant and identical-operand comparisons fold;
//   - operands are ordered by increasing rank (constants rank 0), with the
//     operator reversed on swap, so Y > X and X < Y hash identically;
//   - strict comparisons against a constant are normalized to non-strict
//     ones (c < x becomes c+1 ≤ x), folding to a constant truth value at
//     the int64 extremes.
func NewCompare(op ir.Op, a, b *Expr) *Expr {
	op, a, b, done := canonCompare(op, a, b, NewConst)
	if done != nil {
		return done
	}
	return &Expr{Kind: Compare, Op: op, Args: []*Expr{a, b}}
}

// NegateCompare returns the canonical negation of a comparison (used for
// the predicate of a conditional jump's false edge). The argument must be
// a Compare.
func NegateCompare(e *Expr) *Expr {
	if e.Kind != Compare {
		panic("expr: NegateCompare of " + e.String())
	}
	return NewCompare(e.Op.Negate(), e.Args[0], e.Args[1])
}
