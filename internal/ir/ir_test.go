package ir

import (
	"strings"
	"testing"
	"unsafe"
)

// TestInstrSize pins Instr to the 96-byte size class on 64-bit targets:
// switch cases live on the block, so the one struct every value is made
// of carries nothing only terminators need.
func TestInstrSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit targets")
	}
	if got := unsafe.Sizeof(Instr{}); got > 96 {
		t.Fatalf("Instr is %d bytes, want ≤ 96", got)
	}
}

// buildDiamond constructs:
//
//	entry -> then -> join
//	entry -> else -> join
func buildDiamond(t *testing.T) (*Routine, *Block, *Block, *Block, *Block) {
	t.Helper()
	r := NewRoutine("diamond")
	entry := r.Entry()
	thenB := r.NewBlock("then")
	elseB := r.NewBlock("else")
	join := r.NewBlock("join")

	x := r.AddParam("x")
	zero := r.ConstInt(entry, 0)
	cond := r.Append(entry, OpLt, x, zero)
	r.Append(entry, OpBranch, cond)
	r.AddEdge(entry, thenB)
	r.AddEdge(entry, elseB)

	one := r.ConstInt(thenB, 1)
	r.Append(thenB, OpJump)
	r.AddEdge(thenB, join)

	two := r.ConstInt(elseB, 2)
	r.Append(elseB, OpJump)
	r.AddEdge(elseB, join)

	phi := r.InsertPhi(join)
	phi.SetArg(0, one)
	phi.SetArg(1, two)
	r.Append(join, OpReturn, phi)
	return r, entry, thenB, elseB, join
}

func TestBuilderAndVerify(t *testing.T) {
	r, entry, _, _, join := buildDiamond(t)
	if err := r.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if r.Entry() != entry {
		t.Fatalf("entry block mismatch")
	}
	if got := len(join.Phis()); got != 1 {
		t.Fatalf("join has %d φs, want 1", got)
	}
	if got := join.Phis()[0].Args[0].Const; got != 1 {
		t.Fatalf("φ arg0 const = %d, want 1", got)
	}
	if n := r.NumInstrs(); n != 10 {
		t.Fatalf("NumInstrs = %d, want 10", n)
	}
}

func TestEdgeIndices(t *testing.T) {
	r, entry, thenB, elseB, join := buildDiamond(t)
	if entry.Succs[0].To != thenB || entry.Succs[1].To != elseB {
		t.Fatalf("successor order wrong")
	}
	if join.Preds[0].From != thenB || join.Preds[1].From != elseB {
		t.Fatalf("predecessor order wrong")
	}
	for k, e := range entry.Succs {
		if e.outIndex != k {
			t.Errorf("edge %v OutIndex=%d want %d", e, e.outIndex, k)
		}
	}
	for k, e := range join.Preds {
		if e.InIndex() != k {
			t.Errorf("edge %v InIndex=%d want %d", e, e.InIndex(), k)
		}
	}
	_ = r
}

func TestUseLists(t *testing.T) {
	r := NewRoutine("uses")
	entry := r.Entry()
	a := r.ConstInt(entry, 3)
	b := r.ConstInt(entry, 4)
	sum := r.Append(entry, OpAdd, a, b)
	sum2 := r.Append(entry, OpAdd, a, a)
	r.Append(entry, OpReturn, sum2)

	if a.NumUses() != 3 {
		t.Fatalf("a has %d uses, want 3", a.NumUses())
	}
	if b.NumUses() != 1 {
		t.Fatalf("b has %d uses, want 1", b.NumUses())
	}
	sum.ReplaceUses(b) // no uses: no-op
	sum2.ReplaceUses(a)
	if sum2.NumUses() != 0 {
		t.Fatalf("sum2 still used")
	}
	if a.NumUses() != 4 {
		t.Fatalf("a has %d uses after replace, want 4", a.NumUses())
	}
	r.RemoveInstr(sum2)
	if a.NumUses() != 2 {
		t.Fatalf("a has %d uses after removal, want 2", a.NumUses())
	}
	r.RemoveInstr(sum)
	if err := r.Verify(); err != nil {
		t.Fatalf("Verify after removals: %v", err)
	}
}

func TestSetArgMaintainsUses(t *testing.T) {
	r := NewRoutine("setarg")
	entry := r.Entry()
	a := r.ConstInt(entry, 1)
	b := r.ConstInt(entry, 2)
	add := r.Append(entry, OpAdd, a, a)
	add.SetArg(1, b)
	if a.NumUses() != 1 || b.NumUses() != 1 {
		t.Fatalf("uses after SetArg: a=%d b=%d, want 1/1", a.NumUses(), b.NumUses())
	}
	r.Append(entry, OpReturn, add)
	if err := r.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestRemoveEdgeUpdatesPhis(t *testing.T) {
	r, _, thenB, elseB, join := buildDiamond(t)
	phi := join.Phis()[0]
	e := join.Preds[0] // then -> join
	r.RemoveEdge(e)
	if len(phi.Args) != 1 {
		t.Fatalf("φ has %d args after RemoveEdge, want 1", len(phi.Args))
	}
	if phi.Args[0].Const != 2 {
		t.Fatalf("remaining φ arg is %d, want 2", phi.Args[0].Const)
	}
	if len(thenB.Succs) != 0 {
		t.Fatalf("then still has successors")
	}
	if join.Preds[0].From != elseB || join.Preds[0].InIndex() != 0 {
		t.Fatalf("pred reindexing broken")
	}
}

func TestNegateReverse(t *testing.T) {
	cases := []struct{ op, neg, rev Op }{
		{OpEq, OpNe, OpEq},
		{OpNe, OpEq, OpNe},
		{OpLt, OpGe, OpGt},
		{OpLe, OpGt, OpGe},
		{OpGt, OpLe, OpLt},
		{OpGe, OpLt, OpLe},
	}
	for _, c := range cases {
		if got := c.op.Negate(); got != c.neg {
			t.Errorf("%v.Negate() = %v, want %v", c.op, got, c.neg)
		}
		if got := c.op.Reverse(); got != c.rev {
			t.Errorf("%v.Reverse() = %v, want %v", c.op, got, c.rev)
		}
		if got := c.op.Negate().Negate(); got != c.op {
			t.Errorf("double negate of %v = %v", c.op, got)
		}
	}
}

func TestOpPredicates(t *testing.T) {
	if !OpAdd.IsCommutative() || OpSub.IsCommutative() {
		t.Errorf("commutativity wrong for add/sub")
	}
	if !OpEq.IsCompare() || OpAdd.IsCompare() {
		t.Errorf("IsCompare wrong")
	}
	if !OpJump.IsTerminator() || OpPhi.IsTerminator() {
		t.Errorf("IsTerminator wrong")
	}
	if !OpPhi.HasValue() || OpReturn.HasValue() {
		t.Errorf("HasValue wrong")
	}
}

func TestCloneIndependence(t *testing.T) {
	r, _, _, _, join := buildDiamond(t)
	c := r.Clone()
	if err := c.Verify(); err != nil {
		t.Fatalf("clone Verify: %v", err)
	}
	if c.String() != r.String() {
		t.Fatalf("clone prints differently:\n%s\nvs\n%s", c, r)
	}
	// Mutating the clone must not affect the original.
	cJoin := c.Blocks[3]
	cPhi := cJoin.Phis()[0]
	cPhi.SetArg(0, cPhi.Args[1])
	if join.Phis()[0].Args[0].Const != 1 {
		t.Fatalf("mutating clone affected original")
	}
	if err := r.Verify(); err != nil {
		t.Fatalf("original Verify after clone mutation: %v", err)
	}
}

func TestPrinterShape(t *testing.T) {
	r, _, _, _, _ := buildDiamond(t)
	s := r.String()
	for _, want := range []string{
		"func diamond(x)",
		"entry:",
		"if ",
		"phi [then: ",
		"return ",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("printout missing %q:\n%s", want, s)
		}
	}
}

func TestVerifyCatchesBrokenRoutines(t *testing.T) {
	// Terminator not last.
	r := NewRoutine("bad1")
	entry := r.Entry()
	c := r.ConstInt(entry, 0)
	r.Append(entry, OpReturn, c)
	r.ConstInt(entry, 1)
	if err := r.Verify(); err == nil {
		t.Errorf("terminator-not-last not caught")
	}

	// Missing terminator.
	r2 := NewRoutine("bad2")
	r2.ConstInt(r2.Entry(), 0)
	if err := r2.Verify(); err == nil {
		t.Errorf("missing terminator not caught")
	}

	// φ arg count mismatch.
	r3, _, _, _, join := buildDiamond(t)
	phi := join.Phis()[0]
	phi.RemoveArg(1)
	if err := r3.Verify(); err == nil {
		t.Errorf("φ arg count mismatch not caught")
	}

	// Wrong successor count for branch.
	r4 := NewRoutine("bad4")
	e4 := r4.Entry()
	c4 := r4.ConstInt(e4, 1)
	r4.Append(e4, OpBranch, c4)
	b4 := r4.NewBlock("x")
	r4.AddEdge(e4, b4)
	r4.Append(b4, OpReturn, c4)
	if err := r4.Verify(); err == nil {
		t.Errorf("branch successor count not caught")
	}

	// The id protocol dense side tables rely on: ids are routine-unique
	// and below NumInstrIDs / NumBlockIDs.
	wantErr := func(r *Routine, what, substr string) {
		t.Helper()
		err := r.Verify()
		if err == nil {
			t.Errorf("%s not caught", what)
		} else if !strings.Contains(err.Error(), substr) {
			t.Errorf("%s: error %q does not mention %q", what, err, substr)
		}
	}
	idRoutine := func() (*Routine, *Instr, *Instr) {
		r := NewRoutine("ids")
		e := r.Entry()
		a := r.ConstInt(e, 1)
		b := r.ConstInt(e, 2)
		r.Append(e, OpReturn, r.Append(e, OpAdd, a, b))
		if err := r.Verify(); err != nil {
			t.Fatalf("base routine should verify: %v", err)
		}
		return r, a, b
	}
	r5, a5, b5 := idRoutine()
	b5.ID = a5.ID
	wantErr(r5, "duplicate instruction id", "share id")

	r6, _, b6 := idRoutine()
	b6.ID = r6.NumInstrIDs()
	wantErr(r6, "out-of-range instruction id", "outside [0,")

	// A foreign instruction whose id collides with a member's is still
	// foreign: membership is identity at the id, not the id alone.
	r7, a7, _ := idRoutine()
	other := NewRoutine("other")
	f := other.ConstInt(other.Entry(), 3)
	if f.ID != a7.ID {
		t.Fatalf("test setup: foreign id %d, member id %d", f.ID, a7.ID)
	}
	ret := r7.Entry().Terminator()
	ret.SetArg(0, f)
	r7.RemoveInstr(r7.Entry().Instrs[2]) // the now-unused add
	wantErr(r7, "foreign instruction sharing a member's id", "foreign value")

	r8, _, _ := idRoutine()
	r8.NewBlock("x").ID = r8.Entry().ID
	wantErr(r8, "duplicate block id", "share id")
}

func TestAddParamOrdering(t *testing.T) {
	r := NewRoutine("params")
	entry := r.Entry()
	c := r.ConstInt(entry, 7)
	r.Append(entry, OpReturn, c)
	p1 := r.AddParam("a")
	p2 := r.AddParam("b")
	if entry.Instrs[0] != p1 || entry.Instrs[1] != p2 {
		t.Fatalf("params not at front of entry")
	}
	if err := r.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestValueName(t *testing.T) {
	r := NewRoutine("names")
	entry := r.Entry()
	c := r.ConstInt(entry, 7)
	if got := c.ValueName(); got != "v0" {
		t.Errorf("ValueName = %q, want v0", got)
	}
	c.Name = "seven"
	if got := c.ValueName(); got != "seven" {
		t.Errorf("ValueName = %q, want seven", got)
	}
	call := r.Append(entry, OpCall, c)
	call.Name = "f"
	if got := call.ValueName(); !strings.HasPrefix(got, "v") {
		t.Errorf("call ValueName = %q, want v<ID> (Name is the callee)", got)
	}
	r.Append(entry, OpReturn, call)
}
