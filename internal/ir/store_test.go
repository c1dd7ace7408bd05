package ir

import (
	"reflect"
	"testing"
)

// copyPlan is the SSA plan of a routine that has no variables: no φ, no
// read, no rename. MaterializeSSA then writes a copy of the routine.
func copyPlan(r *Routine) *SSAPlan {
	p := &SSAPlan{Read: make([]int32, r.NumInstrIDs())}
	for k := range p.Read {
		p.Read[k] = -1
	}
	return p
}

// TestReleaseClearsSSAStore holds Routine.Release to DESIGN §17: the
// storage MaterializeSSA carved a routine from goes back to its Scratch
// with every table zero, whole, so an idle Scratch pins nothing of the
// finished routine, and the routine itself keeps nothing. Releasing a
// routine that MaterializeSSA did not build changes nothing.
func TestReleaseClearsSSAStore(t *testing.T) {
	src, _, _, _, _ := buildDiamond(t)
	s := &Scratch{}
	r := src.MaterializeSSA(copyPlan(src), s)
	if got, want := r.String(), src.String(); got != want {
		t.Fatalf("materialized copy prints\n%s\nwant\n%s", got, want)
	}
	st := r.store
	if st == nil {
		t.Fatal("MaterializeSSA recorded no storage")
	}
	if s.store != nil {
		t.Fatal("the Scratch kept the storage it lent")
	}
	r.Release()
	if !reflect.ValueOf(r).Elem().IsZero() {
		t.Error("a released routine keeps some of its fields")
	}
	if s.store != st {
		t.Error("Release did not hand the storage back to its Scratch")
	}
	for name, whole := range map[string]bool{
		"blocks": zeroWhole(&st.blocks), "instrs": zeroWhole(&st.instrs),
		"ptrs": zeroWhole(&st.ptrs), "edges": zeroWhole(&st.edges),
		"edgePtrs": zeroWhole(&st.edgePtrs), "cases": zeroWhole(&st.cases),
		"blockPtr": zeroWhole(&st.blockPtr),
	} {
		if !whole {
			t.Errorf("released %s table is not zero whole", name)
		}
	}

	want := src.String()
	src.Release()
	if got := src.String(); got != want {
		t.Fatalf("Release changed a routine MaterializeSSA did not build:\n%s\nwant\n%s", got, want)
	}
	if err := src.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestTakeKeepsHighWater: a table handed out short keeps the capacity it
// grew to, so a Scratch that served a large routine still has that
// capacity after serving a small one, and remembers how much it handed
// out since its last Reset, which is all that Reset must zero.
func TestTakeKeepsHighWater(t *testing.T) {
	s := &Scratch{}
	if got := s.instrs.Take(8); len(got) != 8 || cap(got) != 8 {
		t.Fatalf("Take(8) = len %d cap %d, want 8 and 8", len(got), cap(got))
	}
	if got := s.instrs.Take(3); len(got) != 3 || cap(got) != 3 {
		t.Fatalf("Take(3) = len %d cap %d, want a full 3-slot carve", len(got), cap(got))
	}
	if tab := tableSlice(&s.instrs); tab.Len() != 8 || tab.Cap() != 8 {
		t.Fatalf("after a short carve the table is len %d cap %d, want 8 and 8", tab.Len(), tab.Cap())
	}
	s.Reset()
	if got := s.instrs.Take(3); len(got) != 3 || cap(got) != 3 {
		t.Fatalf("Take(3) after Reset = len %d cap %d, want 3 and 3", len(got), cap(got))
	}
	if tab := tableSlice(&s.instrs); tab.Len() != 3 || tab.Cap() != 8 {
		t.Fatalf("a small routine after Reset leaves the table len %d cap %d, want 3 and 8", tab.Len(), tab.Cap())
	}
}
