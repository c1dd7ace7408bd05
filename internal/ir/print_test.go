package ir

import (
	"strings"
	"testing"
)

func TestPrintAllInstructionForms(t *testing.T) {
	r := NewRoutine("forms")
	entry := r.Entry()
	one := r.NewBlock("one")
	two := r.NewBlock("two")
	other := r.NewBlock("other")

	a := r.AddParam("a")
	c := r.ConstInt(entry, 7)
	cp := r.Append(entry, OpCopy, a)
	ng := r.Append(entry, OpNeg, cp)
	dv := r.Append(entry, OpDiv, ng, c)
	md := r.Append(entry, OpMod, dv, c)
	cl := r.Append(entry, OpCall, md, c)
	cl.Name = "ext"
	rd := r.Append(entry, OpVarRead)
	rd.Name = "v"
	wr := r.Append(entry, OpVarWrite, cl)
	wr.Name = "v"
	_ = rd
	sw := r.Append(entry, OpSwitch, md)
	sw.Block.Cases = []int64{1, 2}
	r.AddEdge(entry, one)
	r.AddEdge(entry, two)
	r.AddEdge(entry, other)
	r.Append(one, OpReturn, c)
	r.Append(two, OpReturn, md)
	r.Append(other, OpReturn, a)

	out := r.String()
	for _, want := range []string{
		"copy a",
		"neg ",
		"div ",
		"mod ",
		"call ext(",
		"varread v",
		"varwrite v, ",
		"switch ",
		"1: one, 2: two, default: other",
		"return",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("printout missing %q:\n%s", want, out)
		}
	}
	// Individual instruction String().
	if s := sw.String(); !strings.Contains(s, "switch") {
		t.Errorf("switch String: %q", s)
	}
	if s := cl.String(); !strings.Contains(s, "call ext") {
		t.Errorf("call String: %q", s)
	}
}

func TestPrintDetachedInstr(t *testing.T) {
	r := NewRoutine("d")
	c := r.ConstInt(r.Entry(), 3)
	br := r.Append(r.Entry(), OpBranch, c)
	// No successors wired yet: printing must not panic.
	if s := br.String(); !strings.Contains(s, "<nosucc>") {
		t.Errorf("branch without succs prints %q", s)
	}
	phi := &Instr{Op: OpPhi, Args: []*Instr{c, nil}}
	if s := phi.String(); !strings.Contains(s, "<nil>") {
		t.Errorf("φ with nil arg prints %q", s)
	}
}

func TestOpStringAndBounds(t *testing.T) {
	if OpAdd.String() != "add" || OpPhi.String() != "phi" {
		t.Errorf("mnemonics wrong")
	}
	if s := Op(200).String(); !strings.Contains(s, "op(") {
		t.Errorf("out-of-range op prints %q", s)
	}
	if OpInvalid.String() != "invalid" {
		t.Errorf("OpInvalid prints %q", OpInvalid.String())
	}
}

func TestNegatePanicsOnNonCompare(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("Negate(OpAdd) did not panic")
		}
	}()
	OpAdd.Negate()
}

func TestReversePanicsOnNonCompare(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("Reverse(OpAdd) did not panic")
		}
	}()
	OpAdd.Reverse()
}

func TestRemoveInstrPanicsOnLiveUses(t *testing.T) {
	r := NewRoutine("p")
	c := r.ConstInt(r.Entry(), 1)
	r.Append(r.Entry(), OpReturn, c)
	defer func() {
		if recover() == nil {
			t.Fatalf("RemoveInstr of used value did not panic")
		}
	}()
	r.RemoveInstr(c)
}

func TestRemoveBlockPanicsWhenConnected(t *testing.T) {
	r := NewRoutine("p")
	b := r.NewBlock("b")
	r.Append(r.Entry(), OpJump)
	r.AddEdge(r.Entry(), b)
	defer func() {
		if recover() == nil {
			t.Fatalf("RemoveBlock of connected block did not panic")
		}
	}()
	r.RemoveBlock(b)
}

func TestInsertBeforePanicsOnForeignPosition(t *testing.T) {
	r := NewRoutine("p")
	r2 := NewRoutine("q")
	c2 := r2.ConstInt(r2.Entry(), 1)
	defer func() {
		if recover() == nil {
			t.Fatalf("InsertBefore with foreign position did not panic")
		}
	}()
	// c2 belongs to r2; inserting relative to it in r must panic when the
	// position is not found. Fake it by pointing the instr at r's entry.
	c2.Block = r.Entry()
	r.InsertBefore(c2, OpConst)
}

func TestVerifyMoreBrokenShapes(t *testing.T) {
	// Use list mismatch.
	r := NewRoutine("u")
	a := r.ConstInt(r.Entry(), 1)
	add := r.Append(r.Entry(), OpAdd, a, a)
	r.Append(r.Entry(), OpReturn, add)
	a.uses = a.uses[:1] // corrupt
	if err := r.Verify(); err == nil {
		t.Errorf("corrupted use list not caught")
	}

	// Arity violation.
	r2 := NewRoutine("v")
	b := r2.ConstInt(r2.Entry(), 1)
	bad := r2.Append(r2.Entry(), OpAdd, b)
	r2.Append(r2.Entry(), OpReturn, bad)
	if err := r2.Verify(); err == nil {
		t.Errorf("arity violation not caught")
	}

	// φ not at front.
	r3 := NewRoutine("w")
	c3 := r3.ConstInt(r3.Entry(), 1)
	p3 := r3.Append(r3.Entry(), OpPhi)
	_ = c3
	_ = p3
	r3.Append(r3.Entry(), OpReturn, c3)
	if err := r3.Verify(); err == nil {
		t.Errorf("φ after non-φ not caught")
	}
}

func TestNumInstrIDsGrows(t *testing.T) {
	r := NewRoutine("n")
	before := r.NumInstrIDs()
	r.ConstInt(r.Entry(), 1)
	if r.NumInstrIDs() != before+1 {
		t.Errorf("NumInstrIDs did not grow")
	}
	if r.NumBlockIDs() != 1 {
		t.Errorf("NumBlockIDs = %d", r.NumBlockIDs())
	}
}
