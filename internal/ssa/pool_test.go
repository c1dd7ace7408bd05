package ssa

import (
	"testing"

	"pgvn/internal/parser"
)

// TestBuilderReleaseDropsPointers holds the pooled builder to DESIGN
// §17: after release, no table it keeps holds a block pointer or a
// string of the last routine, the plan it handed out included.
func TestBuilderReleaseDropsPointers(t *testing.T) {
	r, err := parser.ParseRoutine(`func f(n) {
entry:
  i = 0
  goto head
head:
  if i < n goto body else exit
body:
  i = i + 1
  goto head
exit:
  return i
}`)
	if err != nil {
		t.Fatal(err)
	}
	s, err := plan(r, SemiPruned)
	if err != nil {
		t.Fatal(err)
	}
	p := &s.plan
	if len(p.PhiBlock) == 0 || len(p.Renames) == 0 {
		t.Fatalf("plan places %d φs and %d renames, want some of each", len(p.PhiBlock), len(p.Renames))
	}
	s.release()
	if s.r != nil || s.tree != nil || len(s.vars) != 0 {
		t.Error("released builder keeps its routine, tree or variable map")
	}
	for k, b := range p.PhiBlock[:cap(p.PhiBlock)] {
		if b != nil {
			t.Errorf("released plan keeps φ block %d (%s)", k, b.Name)
		}
	}
	for k, n := range p.PhiName[:cap(p.PhiName)] {
		if n != "" {
			t.Errorf("released plan keeps φ name %d (%s)", k, n)
		}
	}
	for k, rn := range p.Renames[:cap(p.Renames)] {
		if rn.Name != "" {
			t.Errorf("released plan keeps rename %d (%s)", k, rn.Name)
		}
	}
	for k, n := range s.names[:cap(s.names)] {
		if n != "" {
			t.Errorf("released builder keeps variable name %d (%s)", k, n)
		}
	}
}
