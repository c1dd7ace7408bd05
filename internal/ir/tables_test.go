package ir

import (
	"reflect"
	"testing"

	"pgvn/internal/slab"
)

// TestTablesReleaseDropsPointers holds Scratch to DESIGN §17: after
// Reset, no pointer table it keeps refers to the last routine, past what
// it last handed out as well, and the next Take finds them nil-filled.
func TestTablesReleaseDropsPointers(t *testing.T) {
	r := NewRoutine("f")
	x := r.AddParam("x")
	r.Append(r.Entry(), OpReturn, x)
	s := &Scratch{}
	instrs, blocks, slots := s.instrs.Take(4), s.blocks.Take(3), s.slots.Take(5)
	instrs[3], blocks[2], slots[4] = x, r.Entry(), idSlot{owner: x, uses: 1}
	// A shorter Take hands out less than the table holds.
	s.instrs.Take(1)
	s.Reset()
	if !zeroWhole(&s.instrs) {
		t.Error("a reset instruction table still holds an instruction")
	}
	if !zeroWhole(&s.blocks) {
		t.Error("a reset block table still holds a block")
	}
	if !zeroWhole(&s.slots) {
		t.Error("reset id slots still hold an owner")
	}
	for k, i := range s.instrs.Take(4) {
		if i != nil {
			t.Errorf("the next instruction table holds %s at %d", i.ValueName(), k)
		}
	}
}

// zeroWhole reports whether tab is zero over its whole capacity, past
// what it last handed out as well.
func zeroWhole[T any](tab *slab.Table[T]) bool {
	s := tableSlice(tab)
	s = s.Slice(0, s.Cap())
	for k := 0; k < s.Len(); k++ {
		if !s.Index(k).IsZero() {
			return false
		}
	}
	return true
}

// tableSlice is tab's storage: its length is the high-water mark handed
// out since the last Reset, its capacity the largest ever needed.
func tableSlice[T any](tab *slab.Table[T]) reflect.Value {
	return reflect.ValueOf(tab).Elem().Field(0)
}
