package dom

import (
	"testing"

	"pgvn/internal/parser"
)

// TestReleaseDropsFrontier holds the tree-owned frontier storage to
// DESIGN §17: Release clears every frontier list and the array they are
// carved from, and a recycled tree's Frontier has nil lists for blocks
// outside the covered subgraph.
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
	tree := New(r)
	df := tree.Frontier()
	if total := len(df[1]) + len(df[2]); total != 2 {
		t.Fatalf("a and b have %d frontier entries, want 2", total)
	}
	tree.Release()
	for k, l := range tree.df[:cap(tree.df)] {
		if l != nil {
			t.Errorf("released tree keeps frontier list %d", k)
		}
	}
	for k, b := range tree.dfFlat[:cap(tree.dfFlat)] {
		if b != nil {
			t.Errorf("released tree keeps frontier entry %d (%s)", k, b.Name)
		}
	}
}
