package expr

import (
	"math/rand"
	"testing"

	"pgvn/internal/ir"
)

// TestExprInternCollisions forces distinct constants into one hash bucket
// and checks that the collision chain keeps them distinct and stable.
func TestExprInternCollisions(t *testing.T) {
	in := newInterner(0) // 64 buckets, no growth below 48 entries
	mask := uint64(len(in.tab) - 1)

	// Find constants outside the shared small-constant range that collide
	// modulo the bucket count.
	want := in.bucket(atomHash(Const, 2000)) // nil; fixes the target index
	_ = want
	target := atomHash(Const, 2000) & mask
	var colliding []int64
	for c := int64(2000); len(colliding) < 4; c++ {
		if atomHash(Const, c)&mask == target {
			colliding = append(colliding, c)
		}
	}

	seen := make(map[*Expr]bool)
	for _, c := range colliding {
		e := in.Const(c)
		if e.C != c || e.Kind != Const {
			t.Fatalf("Const(%d) returned %s", c, e)
		}
		if seen[e] {
			t.Fatalf("Const(%d) collided onto an earlier constant", c)
		}
		seen[e] = true
	}
	// All four live in one chain.
	n := 0
	for e := in.tab[target]; e != nil; e = e.next {
		n++
	}
	if n != len(colliding) {
		t.Fatalf("bucket %d holds %d nodes, want %d", target, n, len(colliding))
	}
	// Re-interning walks the chain and returns the canonical nodes.
	for _, c := range colliding {
		e := in.Const(c)
		if !seen[e] {
			t.Fatalf("re-interning Const(%d) built a duplicate", c)
		}
	}
	if in.Size() != len(colliding) {
		t.Fatalf("Size() = %d, want %d", in.Size(), len(colliding))
	}
}

// TestInternGrowth checks rehashing: intern well past the initial table
// size, then verify every constant still probes to its original node.
func TestInternGrowth(t *testing.T) {
	in := newInterner(0)
	first := make([]*Expr, 0, 5000)
	for c := int64(2000); c < 7000; c++ {
		first = append(first, in.Const(c))
	}
	if in.Size() != 5000 {
		t.Fatalf("Size() = %d, want 5000", in.Size())
	}
	for i, c := 0, int64(2000); c < 7000; i, c = i+1, c+1 {
		if got := in.Const(c); got != first[i] {
			t.Fatalf("Const(%d) moved after growth", c)
		}
	}
}

// randAtom builds a raw (uninterned) leaf. Ranks are a function of the
// value ID (rank = id+1), mirroring the analysis invariant that rank is
// functionally determined by ID — sum term order depends on rank, so
// rank-inconsistent atoms would not round-trip through either path.
func randAtom(r *rand.Rand) *Expr {
	switch r.Intn(5) {
	case 0:
		return &Expr{Kind: Const, C: int64(r.Intn(6) - 2)}
	case 1:
		return &Expr{Kind: Const, C: int64(r.Intn(4000) + 2000)}
	case 2:
		id := r.Intn(8)
		return &Expr{Kind: Value, C: int64(id), Rank: id + 1}
	case 3:
		return &Expr{Kind: Unique, C: int64(r.Intn(8))}
	default:
		return &Expr{Kind: BlockTag, C: int64(r.Intn(8))}
	}
}

var quickOps = []ir.Op{ir.OpEq, ir.OpNe, ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe}

// randExpr builds a raw expression tree of bounded depth, covering every
// kind writeKey renders. Trees are built verbatim (no constructor
// canonicalization), matching how φ-predication builds predicate trees.
func randExpr(r *rand.Rand, depth int) *Expr {
	if depth <= 0 {
		return randAtom(r)
	}
	switch r.Intn(7) {
	case 0:
		return randAtom(r)
	case 1: // Sum
		n := r.Intn(3) + 1
		ts := make([]Term, n)
		for i := range ts {
			nf := r.Intn(3)
			fs := make([]ValueRef, nf)
			for j := range fs {
				id := r.Intn(6)
				fs[j] = ValueRef{ID: id, Rank: id + 1}
			}
			ts[i] = Term{Coeff: int64(r.Intn(5) - 2), Factors: fs}
		}
		return &Expr{Kind: Sum, Terms: ts}
	case 2: // Compare
		return &Expr{Kind: Compare, Op: quickOps[r.Intn(len(quickOps))],
			Args: []*Expr{randAtom(r), randAtom(r)}}
	case 3: // Phi
		n := r.Intn(3) + 2
		args := make([]*Expr, n)
		for i := range args {
			args[i] = randExpr(r, depth-1)
		}
		return &Expr{Kind: Phi, Args: args}
	case 4: // And
		n := r.Intn(3) + 1
		args := make([]*Expr, n)
		for i := range args {
			args[i] = randExpr(r, depth-1)
		}
		return &Expr{Kind: And, Args: args}
	case 5: // Or
		n := r.Intn(3) + 1
		args := make([]*Expr, n)
		for i := range args {
			args[i] = randExpr(r, depth-1)
		}
		return &Expr{Kind: Or, Args: args}
	default: // Opaque
		names := []string{"", "f", "g"}
		n := r.Intn(3) + 1
		args := make([]*Expr, n)
		for i := range args {
			args[i] = randAtom(r)
		}
		return &Expr{Kind: Opaque, Op: ir.OpCall, Name: names[r.Intn(3)], Args: args}
	}
}

// TestInternKeyProperty is the quick-style property test of the tentpole
// contract: intern(a) == intern(b) ⇔ Key(a) == Key(b), over random raw
// trees in one universe.
func TestInternKeyProperty(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	in := newInterner(64)
	for i := 0; i < 5000; i++ {
		a, b := randExpr(r, 3), randExpr(r, 3)
		ca, cb := in.Canon(a), in.Canon(b)
		if (ca == cb) != (a.Key() == b.Key()) {
			t.Fatalf("intern/key disagreement:\n a=%s (canon %p)\n b=%s (canon %p)",
				a.Key(), ca, b.Key(), cb)
		}
		// Canonical nodes render the same key as the raw tree.
		if ca.Key() != a.Key() {
			t.Fatalf("canon key drift: raw %s, canon %s", a.Key(), ca.Key())
		}
		// Re-interning an already canonical node is the identity.
		if in.Canon(ca) != ca {
			t.Fatalf("Canon not idempotent for %s", ca.Key())
		}
	}
}

// TestInternerMatchesConstructors cross-checks every Interner constructor
// against its package-level counterpart by canonical key, over random
// canonical atoms.
func TestInternerMatchesConstructors(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	in := newInterner(64)
	const limit = 16

	key := func(e *Expr) string {
		if e == nil {
			return "<nil>"
		}
		return e.Key()
	}
	atom := func() (raw, canon *Expr) {
		a := randAtom(r)
		return a, in.Canon(a)
	}

	for i := 0; i < 4000; i++ {
		ra, ca := atom()
		rb, cb := atom()
		switch r.Intn(8) {
		case 0:
			if g, w := key(in.Add(ca, cb, limit)), key(AddExprs(ra, rb, limit)); g != w {
				t.Fatalf("Add(%s,%s) = %s, want %s", key(ra), key(rb), g, w)
			}
		case 1:
			if g, w := key(in.Sub(ca, cb, limit)), key(SubExprs(ra, rb, limit)); g != w {
				t.Fatalf("Sub(%s,%s) = %s, want %s", key(ra), key(rb), g, w)
			}
		case 2:
			if g, w := key(in.Mul(ca, cb, limit)), key(MulExprs(ra, rb, limit)); g != w {
				t.Fatalf("Mul(%s,%s) = %s, want %s", key(ra), key(rb), g, w)
			}
		case 3:
			if g, w := key(in.Neg(ca)), key(NegExpr(ra)); g != w {
				t.Fatalf("Neg(%s) = %s, want %s", key(ra), g, w)
			}
		case 4:
			op := quickOps[r.Intn(len(quickOps))]
			if g, w := key(in.Compare(op, ca, cb)), key(NewCompare(op, ra, rb)); g != w {
				t.Fatalf("Compare(%v,%s,%s) = %s, want %s", op, key(ra), key(rb), g, w)
			}
		case 5:
			op := ir.OpDiv
			if r.Intn(2) == 0 {
				op = ir.OpMod
			}
			g := key(in.Opaque(op, "", []*Expr{ca, cb}))
			w := key(NewOpaque(op, "", []*Expr{ra, rb}))
			if g != w {
				t.Fatalf("Opaque(%v,%s,%s) = %s, want %s", op, key(ra), key(rb), g, w)
			}
		case 6:
			rtag := &Expr{Kind: BlockTag, C: int64(r.Intn(8))}
			ctag := in.Canon(rtag)
			rc, cc := atom()
			g := key(in.Phi(ctag, []*Expr{ca, cb, cc}))
			w := key(NewPhi(rtag, []*Expr{ra, rb, rc}))
			if g != w {
				t.Fatalf("Phi = %s, want %s", g, w)
			}
		default:
			op := quickOps[r.Intn(len(quickOps))]
			rp := NewCompare(op, ra, rb)
			cp := in.Compare(op, ca, cb)
			rq := NewCompare(op.Negate(), rb, ra)
			cq := in.Compare(op.Negate(), cb, ca)
			if g, w := key(in.And(cp, cq)), key(NewAnd(rp, rq)); g != w {
				t.Fatalf("And = %s, want %s", g, w)
			}
		}
	}
}

// TestInternSharedAtoms checks that the shared canonical atoms are
// identical across universes and never enter a bucket chain.
func TestInternSharedAtoms(t *testing.T) {
	a, b := newInterner(0), newInterner(0)
	if a.Const(0) != b.Const(0) || a.Const(0) != NewConst(0) {
		t.Fatal("small constants must be shared across universes")
	}
	if a.Const(-128) != NewConst(-128) || a.Const(1024) != NewConst(1024) {
		t.Fatal("small-constant range endpoints must be shared")
	}
	if a.Canon(Bot) != Bot || !Bot.interned {
		t.Fatal("Bot must be canonical everywhere")
	}
	if a.Size() != 0 {
		t.Fatalf("shared atoms counted in Size: %d", a.Size())
	}
	// Large constants are per-universe.
	if a.Const(5000) == b.Const(5000) {
		t.Fatal("large constants must intern per universe")
	}
	if a.Const(5000).Key() != "c5000" {
		t.Fatalf("large constant key: %s", a.Const(5000).Key())
	}
}

// TestInternRankExcluded pins the identity rule inherited from the string
// key: Value atoms (and sum factors) intern by ID alone — rank never
// participates in hashing or equality.
func TestInternRankExcluded(t *testing.T) {
	in := newInterner(0)
	v1 := in.Value(9, 1)
	if v2 := in.Value(9, 7); v2 != v1 {
		t.Fatal("Value identity must ignore rank")
	}
	if v1.Rank != 1 {
		t.Fatalf("first interning fixes the rank, got %d", v1.Rank)
	}
	a := &Expr{Kind: Sum, Terms: []Term{{Coeff: 2, Factors: []ValueRef{{ID: 3, Rank: 1}}}, {Coeff: 1, Factors: []ValueRef{{ID: 5, Rank: 2}}}}}
	b := &Expr{Kind: Sum, Terms: []Term{{Coeff: 2, Factors: []ValueRef{{ID: 3, Rank: 4}}}, {Coeff: 1, Factors: []ValueRef{{ID: 5, Rank: 9}}}}}
	if in.Canon(a) != in.Canon(b) {
		t.Fatal("sum identity must ignore factor ranks")
	}
	if a.Key() != b.Key() {
		t.Fatal("keys must also ignore factor ranks")
	}
}

// TestHotPathAllocFree spot-checks that steady-state interning of
// already-seen expressions performs zero allocations.
func TestHotPathAllocFree(t *testing.T) {
	in := newInterner(256)
	v1, v2 := in.Value(1, 1), in.Value(2, 2)
	c := in.Const(7)
	// Warm the table.
	sum := in.Add(v1, v2, 16)
	cmp := in.Compare(ir.OpLt, c, v1)
	in.And(cmp, cmp)
	in.Phi(in.BlockTag(3), []*Expr{v1, v2})
	args := []*Expr{v1, v2}

	allocs := testing.AllocsPerRun(200, func() {
		if in.Add(v1, v2, 16) != sum {
			t.Fatal("Add not stable")
		}
		if in.Compare(ir.OpLt, c, v1) != cmp {
			t.Fatal("Compare not stable")
		}
		in.Mul(v1, v2, 16)
		in.Sub(sum, v2, 16)
		in.Opaque(ir.OpDiv, "", args)
		in.Phi(in.BlockTag(3), args)
	})
	if allocs != 0 {
		t.Fatalf("steady-state interning allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestResetStartsFreshUniverse pins the slab-ownership contract of Reset
// and Release: the next universe carves from none of the previous one's
// chunks, nodes interned before the reset keep their structure while it
// interns over several fresh chunks, and equal expressions are distinct
// nodes in the two universes.
func TestResetStartsFreshUniverse(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	in := newInterner(0)
	var raws []*Expr
	var old []*Expr
	var keys []string
	for i := 0; i < 200; i++ {
		e := randExpr(r, 3)
		raws = append(raws, e)
		c := in.Canon(e)
		old = append(old, c)
		keys = append(keys, c.Key())
	}
	for _, release := range []bool{false, true} {
		if release {
			in.Release()
		}
		in.Reset(0, nil)
		if in.Size() != 0 {
			t.Fatalf("Size after Reset = %d, want 0", in.Size())
		}
		if in.nodes != nil || in.argSlab != nil || in.termSlab != nil || in.facSlab != nil {
			t.Fatal("Reset kept a slab chunk of the previous universe")
		}
		for i := 0; i < 2000; i++ {
			in.Canon(randExpr(r, 3))
		}
		for i, e := range raws {
			c := in.Canon(e)
			if c.Key() != keys[i] {
				t.Fatalf("new universe interns %s as %s", keys[i], c.Key())
			}
			if old[i].Key() != keys[i] {
				t.Fatalf("pre-reset node %s changed to %s", keys[i], old[i].Key())
			}
			if c == old[i] && !isShared(c) {
				t.Fatalf("%s: the new universe returned a pre-reset node", keys[i])
			}
		}
	}
}

// isShared reports whether e is one of the package-level canonical atoms
// every universe shares.
func isShared(e *Expr) bool {
	return e == Bot || (e.Kind == Const && e.C >= -128 && e.C <= 1024)
}
