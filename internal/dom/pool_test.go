package dom

import (
	"reflect"
	"testing"

	"pgvn/internal/ir"
	"pgvn/internal/parser"
	"pgvn/internal/slab"
)

// TestReleaseDropsFrontier holds the tree-owned frontier storage to
// DESIGN §17: Scratch.Reset clears every frontier list and the array
// they are carved from, and a tree rebuilt in the reset Scratch has nil
// frontier lists for blocks outside the covered subgraph.
func TestReleaseDropsFrontier(t *testing.T) {
	r, err := parser.ParseRoutine(`func f(x) {
entry:
  if x < 1 goto a else b
a:
  goto join
b:
  goto join
join:
  return x
}`)
	if err != nil {
		t.Fatal(err)
	}
	s := &Scratch{}
	df := NewIn(s, r).Frontier()
	if total := len(df[1]) + len(df[2]); total != 2 {
		t.Fatalf("a and b have %d frontier entries, want 2", total)
	}
	s.Reset()
	if !zeroWhole(&s.fwd.tab.df) {
		t.Error("reset tree keeps a frontier list")
	}
	if !zeroWhole(&s.fwd.tab.dfFlat) {
		t.Error("reset tree keeps a frontier entry")
	}
	if s.fwd.routine != nil {
		t.Error("reset tree keeps its routine")
	}

	// Without the entry→a edge, a is outside the tree and join is no
	// longer a join: every frontier list comes back nil.
	skip := r.Entry().Succs[0]
	df = newReachable(s, r, func(e *ir.Edge) bool { return e != skip }).Frontier()
	for k, l := range df {
		if l != nil {
			t.Errorf("a rebuilt tree's frontier of block %d is %d long, want nil", k, len(l))
		}
	}
}

// zeroWhole reports whether tab is zero over its whole capacity, past
// what it last handed out as well.
func zeroWhole[T any](tab *slab.Table[T]) bool {
	s := reflect.ValueOf(tab).Elem().Field(0)
	s = s.Slice(0, s.Cap())
	for k := 0; k < s.Len(); k++ {
		if !s.Index(k).IsZero() {
			return false
		}
	}
	return true
}
