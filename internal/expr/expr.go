// Package expr implements the canonical symbolic expressions manipulated by
// the global value numbering algorithm: rank-ordered sums of products for
// global reassociation (paper §2.2), canonicalized comparison predicates
// with an implication oracle (predicate inference, §2.7), AND/OR predicate
// trees for φ-predication (§2.8), and φ expressions.
//
// Expressions are immutable after construction and are interned by a
// canonical string key: two expressions are structurally equal exactly when
// their keys are equal, so the GVN TABLE can be an ordinary map.
//
// Arithmetic follows the shared semantics of package interp: int64
// wraparound, x/0 == x%0 == 0, comparisons yield 1 or 0.
package expr

import (
	"math"
	"strconv"
	"strings"

	"pgvn/internal/ir"
)

// Kind discriminates the expression forms.
type Kind uint8

// Expression kinds.
const (
	// Bottom is ⊥, the undetermined value of the INITIAL congruence
	// class: the optimistic "no information yet".
	Bottom Kind = iota
	// Const is an integer constant.
	Const
	// Value is a reference to an IR value (always a class leader).
	Value
	// Sum is a canonical sum of products.
	Sum
	// Compare is a canonicalized comparison predicate.
	Compare
	// Phi is a φ expression: a tag (Block or predicate) plus arguments.
	Phi
	// And and Or are predicate trees for φ-predication.
	And
	// Or is the disjunction counterpart of And.
	Or
	// Opaque wraps operations outside the reassociation algebra (div,
	// mod, call) applied to atomic operands.
	Opaque
	// BlockTag identifies a basic block (the φ tag when the block has no
	// predicate).
	BlockTag
	// Unique marks a value as congruent only to itself (cyclic φs under
	// balanced/pessimistic value numbering).
	Unique
)

// Expr is one immutable symbolic expression.
type Expr struct {
	// Kind discriminates which fields are meaningful.
	Kind Kind
	// Op is the comparison operator for Compare and the IR opcode for
	// Opaque.
	Op ir.Op
	// Name is the callee name for Opaque calls.
	Name string
	// C is the constant for Const, the value ID for Value and Unique,
	// and the block ID for BlockTag.
	C int64
	// Rank orders Value atoms (paper §2.2: constants rank 0, values by
	// RPO definition order).
	Rank int
	// Terms is the ordered term list for Sum.
	Terms []Term
	// Args holds operands for Compare (2), Phi (tag first, then the
	// arguments in canonical edge order), And, Or and Opaque.
	Args []*Expr

	key string // memoized canonical key (lazily rendered by Key)

	// Hash-consing state (see intern.go). hash is the structural FNV-1a
	// hash; next chains expressions sharing an intern bucket; interned
	// marks canonical nodes, for which structural equality is pointer
	// equality within one Interner's universe (shared atoms like Bot and
	// the small-constant cache are canonical in every universe).
	hash     uint64
	next     *Expr
	interned bool
}

// Term is one product in a Sum: Coeff × Factors[0] × Factors[1] × …
type Term struct {
	// Coeff is the integer coefficient; never 0 in a canonical Sum.
	Coeff int64
	// Factors are value references sorted by (rank, id); a value
	// appearing k times denotes its k'th power.
	Factors []ValueRef
}

// ValueRef identifies one value inside a Term.
type ValueRef struct {
	// ID is the value's instruction ID.
	ID int
	// Rank is the value's GVN rank.
	Rank int
}

// Bot is the shared ⊥ expression.
var Bot = &Expr{Kind: Bottom, key: "bot", hash: atomHash(Bottom, 0), interned: true}

// smallConsts interns the constants the analysis materializes constantly
// (loop bounds, comparison results, folded arithmetic). They are shared
// canonical atoms: every Interner returns them directly, so pointer
// comparison of interned constants works across universes.
var smallConsts = func() [1153]*Expr {
	var cache [1153]*Expr
	for i := range cache {
		c := int64(i - 128)
		cache[i] = &Expr{
			Kind: Const, C: c,
			key:      "c" + strconv.FormatInt(c, 10),
			hash:     atomHash(Const, c),
			interned: true,
		}
	}
	return cache
}()

// NewConst returns the constant expression c (interned for small values).
func NewConst(c int64) *Expr {
	if c >= -128 && c <= 1024 {
		return smallConsts[c+128]
	}
	return &Expr{Kind: Const, C: c}
}

// IsConst reports whether e is a constant, returning its value.
func (e *Expr) IsConst() (int64, bool) {
	if e.Kind == Const {
		return e.C, true
	}
	return 0, false
}

// IsBottom reports whether e is ⊥.
func (e *Expr) IsBottom() bool { return e.Kind == Bottom }

// IsTrue and IsFalse report definite boolean constants.
func (e *Expr) IsTrue() bool { return e.Kind == Const && e.C != 0 }

// IsFalse reports whether e is the constant 0.
func (e *Expr) IsFalse() bool { return e.Kind == Const && e.C == 0 }

// ValueID returns the referenced value ID for Value and Unique atoms, and
// -1 otherwise.
func (e *Expr) ValueID() int {
	if e.Kind == Value || e.Kind == Unique {
		return int(e.C)
	}
	return -1
}

// Key returns the canonical interning key. Equal keys ⇔ structurally equal
// expressions.
func (e *Expr) Key() string {
	if e.key == "" {
		var sb strings.Builder
		e.writeKey(&sb)
		e.key = sb.String()
	}
	return e.key
}

func writeInt(sb *strings.Builder, prefix byte, v int64) {
	var buf [20]byte
	sb.WriteByte(prefix)
	sb.Write(strconv.AppendInt(buf[:0], v, 10))
}

func (e *Expr) writeKey(sb *strings.Builder) {
	if e.key != "" {
		sb.WriteString(e.key)
		return
	}
	switch e.Kind {
	case Bottom:
		sb.WriteString("bot")
	case Const:
		writeInt(sb, 'c', e.C)
	case Value:
		writeInt(sb, 'v', e.C)
	case Unique:
		writeInt(sb, 'u', e.C)
	case BlockTag:
		writeInt(sb, 'b', e.C)
	case Sum:
		sb.WriteString("s(")
		for i, t := range e.Terms {
			if i > 0 {
				sb.WriteByte(' ')
			}
			var buf [20]byte
			sb.Write(strconv.AppendInt(buf[:0], t.Coeff, 10))
			for _, f := range t.Factors {
				sb.WriteByte('*')
				writeInt(sb, 'v', int64(f.ID))
			}
		}
		sb.WriteByte(')')
	case Compare:
		sb.WriteString(e.Op.String())
		sb.WriteByte('(')
		e.Args[0].writeKey(sb)
		sb.WriteByte(',')
		e.Args[1].writeKey(sb)
		sb.WriteByte(')')
	case Phi:
		sb.WriteString("phi(")
		for i, a := range e.Args {
			if i > 0 {
				sb.WriteByte(',')
			}
			a.writeKey(sb)
		}
		sb.WriteByte(')')
	case And, Or:
		if e.Kind == And {
			sb.WriteString("and(")
		} else {
			sb.WriteString("or(")
		}
		for i, a := range e.Args {
			if i > 0 {
				sb.WriteByte(',')
			}
			a.writeKey(sb)
		}
		sb.WriteByte(')')
	case Opaque:
		sb.WriteString(e.Op.String())
		sb.WriteByte(':')
		sb.WriteString(e.Name)
		sb.WriteByte('(')
		for i, a := range e.Args {
			if i > 0 {
				sb.WriteByte(',')
			}
			a.writeKey(sb)
		}
		sb.WriteByte(')')
	default:
		panic("expr: unknown kind in key")
	}
}

// String renders the expression for diagnostics; it is the canonical key.
func (e *Expr) String() string { return e.Key() }

// compareFactors orders factor lists by (rank, id) lexicographically, then
// by length.
func compareFactors(a, b []ValueRef) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i].Rank != b[i].Rank {
			return a[i].Rank - b[i].Rank
		}
		if a[i].ID != b[i].ID {
			return a[i].ID - b[i].ID
		}
	}
	return len(a) - len(b)
}

// normalizeTerms canonicalizes ts in place — a stable sort by factor
// list (sign-insensitive term order, per the paper), merging of equal
// factor lists, zero-coefficient removal — and returns the shortened
// slice. Insertion sort keeps the normalization allocation-free; term
// lists are bounded by the reassociation limit (paper footnote 4).
func normalizeTerms(ts []Term) []Term {
	for i := 1; i < len(ts); i++ {
		for j := i; j > 0 && compareFactors(ts[j-1].Factors, ts[j].Factors) > 0; j-- {
			ts[j-1], ts[j] = ts[j], ts[j-1]
		}
	}
	merged := ts[:0]
	for _, t := range ts {
		if n := len(merged); n > 0 && compareFactors(merged[n-1].Factors, t.Factors) == 0 {
			merged[n-1].Coeff += t.Coeff
			continue
		}
		merged = append(merged, t)
	}
	out := merged[:0]
	for _, t := range merged {
		if t.Coeff != 0 {
			out = append(out, t)
		}
	}
	return out
}

// canonOpaque applies the safe algebraic simplifications of an opaque
// expression (div, mod, call) over atomic operands that are valid under
// the shared x/0 == x%0 == 0 semantics:
//
//	c1 / c2, c1 % c2   → folded
//	x / 1 → x;  0 / x → 0;  x / x is NOT simplified (0/0 == 0 ≠ 1)
//	x % 1 → 0;  0 % x → 0;  x % x → 0 (0%0 == 0 too)
//
// It returns the simplified expression, or nil when an Opaque node must
// be built. newConst supplies constant results so an Interner can route
// folds into its own universe.
func canonOpaque(op ir.Op, args []*Expr, newConst func(int64) *Expr) *Expr {
	if op != ir.OpDiv && op != ir.OpMod {
		return nil
	}
	a, b := args[0], args[1]
	ca, aConst := a.IsConst()
	cb, bConst := b.IsConst()
	switch {
	case aConst && bConst:
		return newConst(foldDivMod(op, ca, cb))
	case aConst && ca == 0:
		return newConst(0)
	case bConst && cb == 1:
		if op == ir.OpDiv {
			return a
		}
		return newConst(0)
	case op == ir.OpMod && sameAtom(a, b):
		return newConst(0)
	}
	return nil
}

func foldDivMod(op ir.Op, a, b int64) int64 {
	if b == 0 {
		return 0
	}
	if a == math.MinInt64 && b == -1 {
		if op == ir.OpDiv {
			return math.MinInt64
		}
		return 0
	}
	if op == ir.OpDiv {
		return a / b
	}
	return a % b
}

// sameAtom reports whether a and b are the same Value atom or equal
// constants.
func sameAtom(a, b *Expr) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case Value, Const, Unique, BlockTag:
		return a.C == b.C
	}
	return a.Key() == b.Key()
}

// NewAnd conjoins predicate expressions, flattening nested Ands and
// dropping constant-true operands. A constant-false operand collapses the
// whole conjunction to false. Operand order is preserved (it is already
// canonical by construction).
func NewAnd(ops ...*Expr) *Expr {
	var flat []*Expr
	for _, o := range ops {
		if o == nil {
			continue
		}
		if o.IsTrue() {
			continue
		}
		if o.IsFalse() {
			return NewConst(0)
		}
		if o.Kind == And {
			flat = append(flat, o.Args...)
			continue
		}
		flat = append(flat, o)
	}
	switch len(flat) {
	case 0:
		return NewConst(1)
	case 1:
		return flat[0]
	}
	return &Expr{Kind: And, Args: flat}
}
