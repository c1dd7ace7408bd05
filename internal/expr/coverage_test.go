package expr

import (
	"math"
	"strings"
	"testing"

	"pgvn/internal/ir"
)

func TestFoldCompareAllOps(t *testing.T) {
	cases := []struct {
		op   ir.Op
		a, b int64
		want int64
	}{
		{ir.OpEq, 3, 3, 1}, {ir.OpEq, 3, 4, 0},
		{ir.OpNe, 3, 4, 1}, {ir.OpNe, 3, 3, 0},
		{ir.OpLt, 3, 4, 1}, {ir.OpLt, 4, 3, 0},
		{ir.OpLe, 3, 3, 1}, {ir.OpLe, 4, 3, 0},
		{ir.OpGt, 4, 3, 1}, {ir.OpGt, 3, 4, 0},
		{ir.OpGe, 3, 3, 1}, {ir.OpGe, 3, 4, 0},
	}
	for _, c := range cases {
		e := NewCompare(c.op, NewConst(c.a), NewConst(c.b))
		if got, _ := e.IsConst(); got != c.want {
			t.Errorf("%d %v %d = %d, want %d", c.a, c.op, c.b, got, c.want)
		}
	}
}

func TestNewComparePanicsOnNonCompare(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("NewCompare(OpAdd) did not panic")
		}
	}()
	NewCompare(ir.OpAdd, NewConst(1), NewConst(2))
}

func TestNegateComparePanicsOnNonCompare(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("NegateCompare(const) did not panic")
		}
	}()
	NegateCompare(NewConst(1))
}

func TestImpliesDegenerateInputs(t *testing.T) {
	x, y := mkval(1, 1), mkval(2, 2)
	cmp := NewCompare(ir.OpLt, x, y)
	if _, ok := Implies(nil, cmp); ok {
		t.Errorf("nil premise decided something")
	}
	if _, ok := Implies(cmp, nil); ok {
		t.Errorf("nil query decided something")
	}
	if _, ok := Implies(NewConst(1), cmp); ok {
		t.Errorf("constant premise decided something")
	}
	if _, ok := Implies(cmp, NewConst(1)); ok {
		t.Errorf("constant query decided something")
	}
	if _, ok := Implies(x, cmp); ok {
		t.Errorf("value premise decided something")
	}
	// And premise with no deciding conjunct.
	and := NewAnd(NewCompare(ir.OpLt, x, y))
	other := NewCompare(ir.OpEq, mkval(3, 3), mkval(4, 4))
	if _, ok := Implies(and, other); ok {
		t.Errorf("unrelated And premise decided something")
	}
	// Or premise with disagreeing disjuncts.
	or := &Expr{Kind: Or, Args: []*Expr{
		NewCompare(ir.OpLt, x, y),
		NewCompare(ir.OpGt, x, y),
	}}
	if _, ok := Implies(or, NewCompare(ir.OpLt, x, y)); ok {
		t.Errorf("disagreeing Or premise decided the query")
	}
	// Or premise that agrees on the query.
	or2 := &Expr{Kind: Or, Args: []*Expr{
		NewCompare(ir.OpLt, x, y),
		NewCompare(ir.OpEq, x, y),
	}}
	if v, ok := Implies(or2, NewCompare(ir.OpLe, x, y)); !ok || !v {
		t.Errorf("agreeing Or premise undecided: (%v,%v)", v, ok)
	}
}

func TestImpliesIntervalEdgeCases(t *testing.T) {
	x := mkval(1, 1)
	mk := func(op ir.Op, c int64) *Expr {
		return &Expr{Kind: Compare, Op: op, Args: []*Expr{NewConst(c), x}}
	}
	// Raw (non-canonical) Lt/Gt premises exercise constraintSet's strict
	// branches, including the unrepresentable extremes.
	if _, ok := Implies(mk(ir.OpLt, math.MaxInt64), mk(ir.OpLe, 0)); ok {
		t.Errorf("MaxInt64 < x should be unrepresentable, not decisive")
	}
	if _, ok := Implies(mk(ir.OpGt, math.MinInt64), mk(ir.OpLe, 0)); ok {
		t.Errorf("MinInt64 > x should be unrepresentable, not decisive")
	}
	if v, ok := Implies(mk(ir.OpLt, 5), mk(ir.OpLe, 3)); !ok || !v {
		t.Errorf("5 < x should imply 3 ≤ x: (%v,%v)", v, ok)
	}
	if v, ok := Implies(mk(ir.OpGt, 3), mk(ir.OpGe, 5)); !ok || !v {
		t.Errorf("3 > x should imply 5 ≥ x: (%v,%v)", v, ok)
	}
	// Point premise vs point-complement query.
	if v, ok := Implies(mk(ir.OpEq, 4), mk(ir.OpNe, 4)); !ok || v {
		t.Errorf("x = 4 vs x ≠ 4: (%v,%v)", v, ok)
	}
	// Complement premise vs point query: disjoint only at the point.
	if v, ok := Implies(mk(ir.OpNe, 4), mk(ir.OpEq, 4)); !ok || v {
		t.Errorf("x ≠ 4 vs x = 4: (%v,%v)", v, ok)
	}
	// Two different complements: undecided.
	if _, ok := Implies(mk(ir.OpNe, 4), mk(ir.OpNe, 5)); ok {
		t.Errorf("x ≠ 4 vs x ≠ 5 decided")
	}
}

func TestExprStringAndKeys(t *testing.T) {
	x := mkval(1, 1)
	u := NewUnique(&ir.Instr{ID: 9})
	bt := NewBlockTag(&ir.Block{ID: 4})
	phi := NewPhi(bt, []*Expr{x, NewConst(2)})
	and := NewAnd(NewCompare(ir.OpLt, x, mkval(2, 2)), NewCompare(ir.OpEq, x, NewConst(1)))
	op := NewOpaque(ir.OpCall, "fn", []*Expr{x})
	for _, c := range []struct {
		e    *Expr
		want string
	}{
		{Bot, "bot"},
		{u, "u9"},
		{bt, "b4"},
		{phi, "phi("},
		{and, "and("},
		{op, "call:fn("},
	} {
		if !strings.Contains(c.e.String(), c.want) {
			t.Errorf("String() = %q, want contains %q", c.e.String(), c.want)
		}
	}
	if !Bot.IsBottom() || x.IsBottom() {
		t.Errorf("IsBottom wrong")
	}
	if x.ValueID() != 1 || u.ValueID() != 9 || bt.ValueID() != -1 {
		t.Errorf("ValueID wrong")
	}
	if NewValue(&ir.Instr{ID: 3}, 7).Rank != 7 {
		t.Errorf("NewValue rank lost")
	}
}

func TestSubNegOutsideAlgebra(t *testing.T) {
	cmp := NewCompare(ir.OpLt, mkval(1, 1), mkval(2, 2))
	if SubExprs(cmp, NewConst(1), limit) != nil {
		t.Errorf("Sub with compare left should be nil")
	}
	if SubExprs(NewConst(1), cmp, limit) != nil {
		t.Errorf("Sub with compare right should be nil")
	}
	if MulExprs(cmp, NewConst(1), limit) != nil {
		t.Errorf("Mul with compare should be nil")
	}
	if MulExprs(NewConst(2), cmp, limit) != nil {
		t.Errorf("Mul with compare right should be nil")
	}
	if AddExprs(NewConst(1), Bot, limit) != nil {
		t.Errorf("Add with bottom should be nil")
	}
}

func TestSubLimit(t *testing.T) {
	x, y := mkval(1, 1), mkval(2, 2)
	s := AddExprs(x, y, limit)
	if SubExprs(s, mkval(3, 3), 1) != nil {
		t.Errorf("Sub limit not enforced")
	}
	if MulExprs(s, s, 2) != nil {
		t.Errorf("Mul limit not enforced")
	}
}

func TestFoldDivModEdge(t *testing.T) {
	if e := NewOpaque(ir.OpMod, "", []*Expr{NewConst(math.MinInt64), NewConst(-1)}); !e.IsFalse() {
		t.Errorf("MinInt64 %% -1 = %v, want 0", e)
	}
	if e := NewOpaque(ir.OpMod, "", []*Expr{NewConst(9), NewConst(0)}); !e.IsFalse() {
		t.Errorf("9 %% 0 = %v, want 0", e)
	}
}

func TestSameAtomKinds(t *testing.T) {
	x := mkval(1, 1)
	u1, u2 := NewUnique(&ir.Instr{ID: 5}), NewUnique(&ir.Instr{ID: 5})
	phiA := NewPhi(NewBlockTag(&ir.Block{ID: 1}), []*Expr{x, NewConst(0)})
	phiB := NewPhi(NewBlockTag(&ir.Block{ID: 1}), []*Expr{x, NewConst(0)})
	if !sameAtom(u1, u2) {
		t.Errorf("identical uniques differ")
	}
	if sameAtom(u1, x) {
		t.Errorf("unique equals value")
	}
	if !sameAtom(phiA, phiB) {
		t.Errorf("identical φ exprs differ (falls back to keys)")
	}
}
