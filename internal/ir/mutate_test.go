package ir

import "testing"

func TestRetargetEdgePreservesSuccOrder(t *testing.T) {
	r := NewRoutine("f")
	entry := r.Entry()
	a := r.NewBlock("a")
	b := r.NewBlock("b")
	c := r.NewBlock("c")
	x := r.AddParam("x")
	r.Append(entry, OpBranch, x)
	r.AddEdge(entry, a) // true target
	r.AddEdge(entry, b) // false target
	r.Append(a, OpReturn, x)
	r.Append(b, OpReturn, x)
	r.Append(c, OpReturn, x)

	// Retarget the false edge to c: the true edge must stay at index 0.
	r.RetargetEdge(entry.Succs[1], c)
	if entry.Succs[0].To != a || entry.Succs[1].To != c {
		t.Fatalf("successor order broken: %v, %v", entry.Succs[0].To, entry.Succs[1].To)
	}
	if len(b.Preds) != 0 {
		t.Fatalf("b still has predecessors")
	}
	if len(c.Preds) != 1 || c.Preds[0].From != entry {
		t.Fatalf("c predecessors wrong")
	}
	if err := r.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

func TestRetargetEdgePhiSlots(t *testing.T) {
	r := NewRoutine("f")
	entry := r.Entry()
	a := r.NewBlock("a")
	join := r.NewBlock("join")
	other := r.NewBlock("other")
	x := r.AddParam("x")
	one := r.ConstInt(entry, 1)
	two := r.ConstInt(entry, 2)
	r.Append(entry, OpBranch, x)
	r.AddEdge(entry, a)
	r.AddEdge(entry, join)
	r.Append(a, OpJump)
	r.AddEdge(a, join)

	phi := r.InsertPhi(join)
	phi.SetArg(0, one) // from entry
	phi.SetArg(1, two) // from a
	r.Append(join, OpReturn, phi)

	// The old φ slot for the moved edge must disappear; other gains one.
	otherPhi := r.InsertPhi(other)
	r.Append(other, OpReturn, x)
	r.RetargetEdge(a.Succs[0], other)
	if len(phi.Args) != 1 || phi.Args[0] != one {
		t.Fatalf("join φ args wrong after retarget: %v", phi.Args)
	}
	if len(otherPhi.Args) != 1 || otherPhi.Args[0] != nil {
		t.Fatalf("other φ should have gained one nil slot: %v", otherPhi.Args)
	}
	otherPhi.SetArg(0, two)
	if err := r.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

func TestMergeBlocks(t *testing.T) {
	r := NewRoutine("f")
	entry := r.Entry()
	tail := r.NewBlock("tail")
	x := r.AddParam("x")
	sum := r.Append(entry, OpAdd, x, x)
	r.Append(entry, OpJump)
	r.AddEdge(entry, tail)
	prod := r.Append(tail, OpMul, sum, x)
	r.Append(tail, OpReturn, prod)

	r.MergeBlocks(entry, tail)
	if len(r.Blocks) != 1 {
		t.Fatalf("%d blocks after merge", len(r.Blocks))
	}
	if prod.Block != entry {
		t.Fatalf("moved instruction has stale block")
	}
	if term := entry.Terminator(); term == nil || term.Op != OpReturn {
		t.Fatalf("terminator after merge: %v", term)
	}
	if err := r.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

func TestMergeBlocksInheritsSuccessors(t *testing.T) {
	r := NewRoutine("f")
	entry := r.Entry()
	mid := r.NewBlock("mid")
	l := r.NewBlock("l")
	q := r.NewBlock("q")
	x := r.AddParam("x")
	r.Append(entry, OpJump)
	r.AddEdge(entry, mid)
	r.Append(mid, OpBranch, x)
	r.AddEdge(mid, l)
	r.AddEdge(mid, q)
	r.Append(l, OpReturn, x)
	r.Append(q, OpReturn, x)

	r.MergeBlocks(entry, mid)
	if len(entry.Succs) != 2 || entry.Succs[0].To != l || entry.Succs[1].To != q {
		t.Fatalf("successors not inherited in order")
	}
	for k, e := range entry.Succs {
		if e.From != entry || e.OutIndex() != k {
			t.Fatalf("edge bookkeeping broken")
		}
	}
	if err := r.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

func TestMergeBlocksPanicsOnBadShape(t *testing.T) {
	r := NewRoutine("f")
	entry := r.Entry()
	a := r.NewBlock("a")
	b := r.NewBlock("b")
	x := r.AddParam("x")
	r.Append(entry, OpBranch, x)
	r.AddEdge(entry, a)
	r.AddEdge(entry, b)
	r.Append(a, OpReturn, x)
	r.Append(b, OpReturn, x)

	defer func() {
		if recover() == nil {
			t.Fatalf("MergeBlocks accepted a branch source")
		}
	}()
	r.MergeBlocks(entry, a)
}

func TestSplitEdgePreservesPhiSlots(t *testing.T) {
	r := NewRoutine("f")
	entry := r.Entry()
	a := r.NewBlock("a")
	join := r.NewBlock("join")
	x := r.AddParam("x")
	one := r.ConstInt(entry, 1)
	two := r.ConstInt(entry, 2)
	r.Append(entry, OpBranch, x)
	r.AddEdge(entry, a)
	r.AddEdge(entry, join) // critical: entry has 2 succs, join has 2 preds
	r.Append(a, OpJump)
	r.AddEdge(a, join)

	phi := r.InsertPhi(join)
	phi.SetArg(0, one) // from entry
	phi.SetArg(1, two) // from a
	r.Append(join, OpReturn, phi)

	crit := entry.Succs[1]
	s := r.SplitEdge(crit)

	// The split block sits on the edge: entry -> s -> join.
	if crit.To != s || len(s.Preds) != 1 || s.Preds[0] != crit {
		t.Fatalf("split block not interposed on the edge")
	}
	if len(s.Succs) != 1 || s.Succs[0].To != join {
		t.Fatalf("split block does not jump to the old destination")
	}
	if term := s.Terminator(); term == nil || term.Op != OpJump {
		t.Fatalf("split block terminator: %v", term)
	}
	// entry's successor order is untouched (branch targets stay aligned).
	if entry.Succs[0].To != a || entry.Succs[1] != crit {
		t.Fatalf("entry successor order broken")
	}
	// join's φ keeps both slots; the slot that flowed along the split edge
	// now flows along the split block's jump.
	if len(phi.Args) != 2 || phi.Args[0] != one || phi.Args[1] != two {
		t.Fatalf("join φ args wrong after split: %v", phi.Args)
	}
	if join.Preds[s.Succs[0].InIndex()] != s.Succs[0] {
		t.Fatalf("split out-edge not mirrored at its φ slot")
	}
	if err := r.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

func TestSplitEdgeMiddleSlot(t *testing.T) {
	// Splitting an edge that is not the destination's first predecessor
	// must keep every other predecessor's inIndex intact.
	r := NewRoutine("f")
	entry := r.Entry()
	a := r.NewBlock("a")
	b := r.NewBlock("b")
	c := r.NewBlock("c")
	join := r.NewBlock("join")
	x := r.AddParam("x")
	r.Append(entry, OpSwitch, x)
	consts := make([]*Instr, 3)
	for k, blk := range []*Block{a, b, c} {
		r.AddEdge(entry, blk)
		consts[k] = r.ConstInt(blk, int64(k))
		r.Append(blk, OpJump)
		r.AddEdge(blk, join)
	}
	entry.Cases = []int64{1, 2}
	phi := r.InsertPhi(join)
	for k := range consts {
		phi.SetArg(k, consts[k])
	}
	r.Append(join, OpReturn, phi)

	mid := join.Preds[1]
	s := r.SplitEdge(mid)
	if join.Preds[0].From != a || join.Preds[1].From != s || join.Preds[2].From != c {
		t.Fatalf("predecessor slots shuffled by split")
	}
	for k, e := range join.Preds {
		if e.InIndex() != k {
			t.Fatalf("pred %d has inIndex %d", k, e.InIndex())
		}
	}
	if err := r.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

// TestMergeBlocksKeepsSwitchCases merges a switch block into its jumping
// predecessor: the cases travel with the terminator to the merged block.
func TestMergeBlocksKeepsSwitchCases(t *testing.T) {
	r := NewRoutine("f")
	entry := r.Entry()
	sw := r.NewBlock("sw")
	x := r.AddParam("x")
	r.Append(entry, OpJump)
	r.AddEdge(entry, sw)
	r.Append(sw, OpSwitch, x)
	for _, name := range []string{"a", "b", "c"} {
		arm := r.NewBlock(name)
		r.AddEdge(sw, arm)
		r.Append(arm, OpReturn, x)
	}
	sw.Cases = []int64{4, 7}
	want := "switch x [4: a, 7: b, default: c]"

	r.MergeBlocks(entry, sw)
	if err := r.Verify(); err != nil {
		t.Fatalf("verify after merge: %v", err)
	}
	if len(entry.Cases) != 2 || entry.Cases[0] != 4 || entry.Cases[1] != 7 {
		t.Fatalf("merged block cases = %v, want [4 7]", entry.Cases)
	}
	if sw.Cases != nil {
		t.Fatalf("removed block still holds cases %v", sw.Cases)
	}
	if got := entry.Terminator().String(); got != want {
		t.Fatalf("merged terminator prints %q, want %q", got, want)
	}
}
