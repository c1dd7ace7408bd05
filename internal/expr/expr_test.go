package expr

import (
	"math"
	"testing"
	"testing/quick"

	"pgvn/internal/ir"
)

// mkval builds a Value atom with the given id and rank (tests don't need a
// real ir.Instr beyond its ID).
func mkval(id, rank int) *Expr {
	return &Expr{Kind: Value, C: int64(id), Rank: rank}
}

const limit = 64

func TestSumCancellation(t *testing.T) {
	x := mkval(1, 1)
	// x - x = 0
	if d := SubExprs(x, x, limit); !d.IsFalse() {
		t.Errorf("x-x = %v, want c0", d)
	}
	// (x+3) - (x+1) = 2
	x3 := AddExprs(x, NewConst(3), limit)
	x1 := AddExprs(x, NewConst(1), limit)
	if d := SubExprs(x3, x1, limit); d.Kind != Const || d.C != 2 {
		t.Errorf("(x+3)-(x+1) = %v, want c2", d)
	}
}

func TestSumCommutativity(t *testing.T) {
	x, y := mkval(1, 1), mkval(2, 2)
	a := AddExprs(x, y, limit)
	b := AddExprs(y, x, limit)
	if a.Key() != b.Key() {
		t.Errorf("x+y and y+x differ: %v vs %v", a, b)
	}
}

func TestSumAssociativity(t *testing.T) {
	x, y, z := mkval(1, 1), mkval(2, 2), mkval(3, 3)
	a := AddExprs(AddExprs(x, y, limit), z, limit)
	b := AddExprs(x, AddExprs(y, z, limit), limit)
	if a.Key() != b.Key() {
		t.Errorf("(x+y)+z and x+(y+z) differ: %v vs %v", a, b)
	}
}

func TestDistributivity(t *testing.T) {
	x, y, z := mkval(1, 1), mkval(2, 2), mkval(3, 3)
	// x*(y+z) == x*y + x*z
	a := MulExprs(x, AddExprs(y, z, limit), limit)
	b := AddExprs(MulExprs(x, y, limit), MulExprs(x, z, limit), limit)
	if a.Key() != b.Key() {
		t.Errorf("x*(y+z) = %v, x*y+x*z = %v", a, b)
	}
}

func TestMulByZeroAndOne(t *testing.T) {
	x := mkval(1, 1)
	if e := MulExprs(x, NewConst(0), limit); !e.IsFalse() {
		t.Errorf("x*0 = %v", e)
	}
	if e := MulExprs(x, NewConst(1), limit); e.Key() != x.Key() {
		t.Errorf("x*1 = %v", e)
	}
	if e := AddExprs(x, NewConst(0), limit); e.Key() != x.Key() {
		t.Errorf("x+0 = %v", e)
	}
}

func TestPaperFigureReassociation(t *testing.T) {
	// The key reduction from Figure 2: P + (2+X) + 0 - (1+X) - P = 1.
	p, x := mkval(10, 5), mkval(11, 1)
	e := AddExprs(p, AddExprs(NewConst(2), x, limit), limit)
	e = AddExprs(e, NewConst(0), limit)
	e = SubExprs(e, AddExprs(NewConst(1), x, limit), limit)
	e = SubExprs(e, p, limit)
	if c, ok := e.IsConst(); !ok || c != 1 {
		t.Errorf("P+(2+X)+0-(1+X)-P = %v, want c1", e)
	}
}

func TestForwardPropagationLimit(t *testing.T) {
	// Adding with a tiny limit cancels reassociation.
	x, y := mkval(1, 1), mkval(2, 2)
	s := AddExprs(x, y, limit)
	if got := AddExprs(s, mkval(3, 3), 1); got != nil {
		t.Errorf("limit not enforced: %v", got)
	}
}

func TestSumOutsideAlgebra(t *testing.T) {
	cmp := NewCompare(ir.OpLt, mkval(1, 1), mkval(2, 2))
	if AddExprs(cmp, NewConst(1), limit) != nil {
		t.Errorf("compare should not participate in sums directly")
	}
	if NegExpr(cmp) != nil {
		t.Errorf("NegExpr of compare should be nil")
	}
}

func TestSquareTerm(t *testing.T) {
	x := mkval(1, 1)
	sq := MulExprs(x, x, limit)
	if sq.Kind != Sum || len(sq.Terms) != 1 || len(sq.Terms[0].Factors) != 2 {
		t.Fatalf("x*x = %v, want single term with two factors", sq)
	}
	// (x*x) - (x*x) = 0
	if d := SubExprs(sq, sq, limit); !d.IsFalse() {
		t.Errorf("x²-x² = %v", d)
	}
}

func TestSignInsensitiveOrdering(t *testing.T) {
	// x - y and -y + x must produce identical canonical forms.
	x, y := mkval(1, 1), mkval(2, 2)
	a := SubExprs(x, y, limit)
	b := AddExprs(NegExpr(y), x, limit)
	if a.Key() != b.Key() {
		t.Errorf("x-y = %v, -y+x = %v", a, b)
	}
}

func TestOpaqueDivMod(t *testing.T) {
	x := mkval(1, 1)
	cases := []struct {
		e    *Expr
		want string
	}{
		{NewOpaque(ir.OpDiv, "", []*Expr{NewConst(7), NewConst(2)}), "c3"},
		{NewOpaque(ir.OpMod, "", []*Expr{NewConst(7), NewConst(2)}), "c1"},
		{NewOpaque(ir.OpDiv, "", []*Expr{NewConst(7), NewConst(0)}), "c0"},
		{NewOpaque(ir.OpDiv, "", []*Expr{x, NewConst(1)}), "v1"},
		{NewOpaque(ir.OpDiv, "", []*Expr{NewConst(0), x}), "c0"},
		{NewOpaque(ir.OpMod, "", []*Expr{x, NewConst(1)}), "c0"},
		{NewOpaque(ir.OpMod, "", []*Expr{NewConst(0), x}), "c0"},
		{NewOpaque(ir.OpMod, "", []*Expr{x, x}), "c0"},
	}
	for _, c := range cases {
		if got := c.e.Key(); got != c.want {
			t.Errorf("got %s, want %s", got, c.want)
		}
	}
	// x / x must NOT fold (0/0 == 0 under our semantics).
	if e := NewOpaque(ir.OpDiv, "", []*Expr{x, x}); e.Kind != Opaque {
		t.Errorf("x/x folded to %v", e)
	}
	// MinInt64 / -1 wraps.
	e := NewOpaque(ir.OpDiv, "", []*Expr{NewConst(math.MinInt64), NewConst(-1)})
	if c, _ := e.IsConst(); c != math.MinInt64 {
		t.Errorf("MinInt64/-1 = %v", e)
	}
}

func TestCompareCanonicalization(t *testing.T) {
	x, y := mkval(1, 1), mkval(2, 2)
	// y > x  canonicalizes to  x < y.
	a := NewCompare(ir.OpGt, y, x)
	b := NewCompare(ir.OpLt, x, y)
	if a.Key() != b.Key() {
		t.Errorf("y>x = %v, x<y = %v", a, b)
	}
	// 1 < x  normalizes to  2 ≤ x;  x > 1 the same.
	c1 := NewCompare(ir.OpLt, NewConst(1), x)
	c2 := NewCompare(ir.OpGt, x, NewConst(1))
	if c1.Key() != c2.Key() || c1.Op != ir.OpLe {
		t.Errorf("1<x = %v, x>1 = %v", c1, c2)
	}
	if c, _ := c1.Args[0].IsConst(); c != 2 {
		t.Errorf("1<x left constant = %d, want 2", c)
	}
}

func TestCompareFolding(t *testing.T) {
	x := mkval(1, 1)
	if e := NewCompare(ir.OpLt, NewConst(1), NewConst(2)); !e.IsTrue() {
		t.Errorf("1<2 = %v", e)
	}
	if e := NewCompare(ir.OpEq, x, x); !e.IsTrue() {
		t.Errorf("x==x = %v", e)
	}
	if e := NewCompare(ir.OpNe, x, x); !e.IsFalse() {
		t.Errorf("x!=x = %v", e)
	}
	if e := NewCompare(ir.OpLt, x, x); !e.IsFalse() {
		t.Errorf("x<x = %v", e)
	}
	// Extremes fold.
	if e := NewCompare(ir.OpLt, NewConst(math.MaxInt64), x); !e.IsFalse() {
		t.Errorf("MaxInt64 < x = %v", e)
	}
	if e := NewCompare(ir.OpGt, NewConst(math.MinInt64), x); !e.IsFalse() {
		t.Errorf("MinInt64 > x = %v", e)
	}
	if e := NewCompare(ir.OpLe, NewConst(math.MinInt64), x); !e.IsTrue() {
		t.Errorf("MinInt64 <= x = %v", e)
	}
	if e := NewCompare(ir.OpGe, NewConst(math.MaxInt64), x); !e.IsTrue() {
		t.Errorf("MaxInt64 >= x = %v", e)
	}
}

func TestNegateCompare(t *testing.T) {
	x, y := mkval(1, 1), mkval(2, 2)
	e := NewCompare(ir.OpLt, x, y)
	n := NegateCompare(e)
	if n.Op != ir.OpGe {
		t.Errorf("¬(x<y) = %v", n)
	}
	if nn := NegateCompare(n); nn.Key() != e.Key() {
		t.Errorf("double negation: %v", nn)
	}
}

func TestImpliesSamePair(t *testing.T) {
	x, y := mkval(1, 1), mkval(2, 2)
	lt := NewCompare(ir.OpLt, x, y)
	le := NewCompare(ir.OpLe, x, y)
	eq := NewCompare(ir.OpEq, x, y)
	ne := NewCompare(ir.OpNe, x, y)
	gt := NewCompare(ir.OpGt, x, y)

	check := func(p, q *Expr, wantVal, wantKnown bool) {
		t.Helper()
		v, ok := Implies(p, q)
		if ok != wantKnown || (ok && v != wantVal) {
			t.Errorf("Implies(%v, %v) = (%v,%v), want (%v,%v)", p, q, v, ok, wantVal, wantKnown)
		}
	}
	check(lt, le, true, true)   // x<y ⟹ x≤y
	check(lt, ne, true, true)   // x<y ⟹ x≠y
	check(lt, eq, false, true)  // x<y ⟹ ¬(x=y)
	check(lt, gt, false, true)  // x<y ⟹ ¬(x>y)
	check(le, lt, false, false) // x≤y says nothing about x<y
	check(eq, le, true, true)
	check(ne, lt, false, false)
}

func TestImpliesConstIntervals(t *testing.T) {
	x := mkval(1, 1)
	mk := func(op ir.Op, c int64) *Expr { return NewCompare(op, NewConst(c), x) }

	check := func(p, q *Expr, wantVal, wantKnown bool) {
		t.Helper()
		v, ok := Implies(p, q)
		if ok != wantKnown || (ok && v != wantVal) {
			t.Errorf("Implies(%v, %v) = (%v,%v), want (%v,%v)", p, q, v, ok, wantVal, wantKnown)
		}
	}
	// The paper's example: x > 0 dominating makes x < 0 false.
	check(mk(ir.OpLt, 0 /* 0 < x */), mk(ir.OpGt, 0 /* 0 > x */), false, true)
	// x > 1 (i.e. 1 < x) makes x < 1 false — the Figure 2 inference
	// (Z > I with I = 1 makes Z < 1 false).
	check(mk(ir.OpLt, 1), mk(ir.OpGt, 1), false, true)
	// 5 ≤ x implies 3 ≤ x.
	check(mk(ir.OpLe, 5), mk(ir.OpLe, 3), true, true)
	// 5 ≤ x implies x ≠ 4 (4 = x is false).
	check(mk(ir.OpLe, 5), mk(ir.OpEq, 4), false, true)
	check(mk(ir.OpLe, 5), mk(ir.OpNe, 4), true, true)
	// x = 7 decides everything.
	check(mk(ir.OpEq, 7), mk(ir.OpLe, 7), true, true)
	check(mk(ir.OpEq, 7), mk(ir.OpGe, 7), true, true)
	check(mk(ir.OpEq, 7), mk(ir.OpLe, 8), false, true) // 8 ≤ 7 is false
	// x ≠ 3 implies x ≠ 3 and nothing else.
	check(mk(ir.OpNe, 3), mk(ir.OpNe, 3), true, true)
	check(mk(ir.OpNe, 3), mk(ir.OpLe, 3), false, false)
	// Overlapping intervals are unknown.
	check(mk(ir.OpLe, 3), mk(ir.OpLe, 5), false, false)
}

func TestImpliesThroughAnd(t *testing.T) {
	x := mkval(1, 1)
	p := NewAnd(
		NewCompare(ir.OpNe, NewConst(1), x),
		NewCompare(ir.OpLe, NewConst(5), x),
	)
	q := NewCompare(ir.OpLe, NewConst(3), x)
	if v, ok := Implies(p, q); !ok || !v {
		t.Errorf("And-implication failed: (%v,%v)", v, ok)
	}
}

func TestPhiReduction(t *testing.T) {
	x := mkval(1, 1)
	tag := NewBlockTag(&ir.Block{ID: 7})
	if e := NewPhi(tag, []*Expr{x, x, x}); e.Key() != x.Key() {
		t.Errorf("φ(x,x,x) = %v", e)
	}
	y := mkval(2, 2)
	e := NewPhi(tag, []*Expr{x, y})
	if e.Kind != Phi || len(e.Args) != 3 {
		t.Errorf("φ(x,y) = %v", e)
	}
	// Same args under a different tag must hash differently.
	e2 := NewPhi(NewBlockTag(&ir.Block{ID: 8}), []*Expr{x, y})
	if e.Key() == e2.Key() {
		t.Errorf("φs in different blocks collided")
	}
	// Same args under an equal predicate tag must hash identically.
	p1 := NewCompare(ir.OpLt, x, y)
	p2 := NewCompare(ir.OpGt, y, x)
	if NewPhi(p1, []*Expr{x, y}).Key() != NewPhi(p2, []*Expr{x, y}).Key() {
		t.Errorf("φs under congruent predicates should collide")
	}
}

func TestAndOrSimplification(t *testing.T) {
	x, y := mkval(1, 1), mkval(2, 2)
	p := NewCompare(ir.OpLt, x, y)
	q := NewCompare(ir.OpEq, x, y)
	if e := NewAnd(p, NewConst(1)); e.Key() != p.Key() {
		t.Errorf("p ∧ true = %v", e)
	}
	if e := NewAnd(p, NewConst(0)); !e.IsFalse() {
		t.Errorf("p ∧ false = %v", e)
	}
	// Flattening.
	e := NewAnd(NewAnd(p, q), p)
	if e.Kind != And || len(e.Args) != 3 {
		t.Errorf("nested And not flattened: %v", e)
	}
	if NewAnd() == nil || !NewAnd().IsTrue() {
		t.Errorf("empty And should be true")
	}
}

func TestKeysAreDistinct(t *testing.T) {
	x, y := mkval(1, 1), mkval(2, 2)
	exprs := []*Expr{
		Bot,
		NewConst(0),
		NewConst(1),
		x, y,
		NewUnique(&ir.Instr{ID: 1}),
		NewBlockTag(&ir.Block{ID: 1}),
		AddExprs(x, y, limit),
		MulExprs(x, y, limit),
		NewCompare(ir.OpLt, x, y),
		NewCompare(ir.OpLe, x, y),
		NewOpaque(ir.OpDiv, "", []*Expr{x, y}),
		NewOpaque(ir.OpCall, "f", []*Expr{x}),
		NewOpaque(ir.OpCall, "g", []*Expr{x}),
		NewPhi(NewBlockTag(&ir.Block{ID: 1}), []*Expr{x, y}),
	}
	seen := map[string]int{}
	for i, e := range exprs {
		if j, dup := seen[e.Key()]; dup {
			t.Errorf("exprs %d and %d share key %s", i, j, e.Key())
		}
		seen[e.Key()] = i
	}
}

// Property: sum construction agrees with int64 evaluation for random
// coefficient assignments (3 variables, random small expressions).
func TestQuickSumSemantics(t *testing.T) {
	x, y, z := mkval(1, 1), mkval(2, 2), mkval(3, 3)
	eval := func(e *Expr, vx, vy, vz int64) int64 {
		switch e.Kind {
		case Const:
			return e.C
		case Value:
			switch e.C {
			case 1:
				return vx
			case 2:
				return vy
			default:
				return vz
			}
		case Sum:
			var total int64
			for _, tm := range e.Terms {
				p := tm.Coeff
				for _, f := range tm.Factors {
					switch f.ID {
					case 1:
						p *= vx
					case 2:
						p *= vy
					default:
						p *= vz
					}
				}
				total += p
			}
			return total
		}
		t.Fatalf("unexpected kind %v", e.Kind)
		return 0
	}
	f := func(vx, vy, vz int64, c int64) bool {
		// ((x+c) * (y - z) - x*y) evaluated two ways.
		e1 := AddExprs(x, NewConst(c), limit)
		e2 := SubExprs(y, z, limit)
		prod := MulExprs(e1, e2, limit)
		e := SubExprs(prod, MulExprs(x, y, limit), limit)
		want := (vx+c)*(vy-vz) - vx*vy
		return eval(e, vx, vy, vz) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
