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
// storage MaterializeSSA carved a routine from goes back with every
// table zero, whole, so the pool pins nothing of the finished routine,
// and the routine itself keeps nothing. Releasing a routine that
// MaterializeSSA did not build changes nothing.
func TestReleaseClearsSSAStore(t *testing.T) {
	src, _, _, _, _ := buildDiamond(t)
	r := src.MaterializeSSA(copyPlan(src))
	if got, want := r.String(), src.String(); got != want {
		t.Fatalf("materialized copy prints\n%s\nwant\n%s", got, want)
	}
	st := r.store
	if st == nil {
		t.Fatal("MaterializeSSA recorded no storage")
	}
	r.Release()
	if !reflect.ValueOf(r).Elem().IsZero() {
		t.Error("a released routine keeps some of its fields")
	}
	for name, table := range map[string]any{
		"blocks": st.blocks, "instrs": st.instrs, "ptrs": st.ptrs, "edges": st.edges,
		"edgePtrs": st.edgePtrs, "cases": st.cases, "blockPtr": st.blockPtr,
	} {
		v := reflect.ValueOf(table)
		v = v.Slice(0, v.Cap())
		for k := 0; k < v.Len(); k++ {
			if !v.Index(k).IsZero() {
				t.Errorf("released %s table is not zero at %d", name, k)
				break
			}
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
// grew to, so a store that served a large routine still has that
// capacity after serving a small one, and remembers how much it handed
// out, which is all that clearing it must zero.
func TestTakeKeepsHighWater(t *testing.T) {
	var s []*Instr
	if got := take(&s, 8); len(got) != 8 || cap(got) != 8 {
		t.Fatalf("take(8) = len %d cap %d, want 8 and 8", len(got), cap(got))
	}
	if got := take(&s, 3); len(got) != 3 || cap(got) != 3 {
		t.Fatalf("take(3) = len %d cap %d, want a full 3-slot carve", len(got), cap(got))
	}
	if len(s) != 3 || cap(s) != 8 {
		t.Fatalf("after a short carve the table is len %d cap %d, want 3 and 8", len(s), cap(s))
	}
}
