package ssa

import (
	"testing"

	"pgvn/internal/parser"
)

// TestBuilderReleaseDropsPointers holds the builder a Scratch keeps to
// DESIGN §17: after Reset, no table it keeps holds a block pointer or a
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
	sc := &Scratch{}
	s, err := sc.plan(r, SemiPruned)
	if err != nil {
		t.Fatal(err)
	}
	p := &s.plan
	if len(p.PhiBlock) == 0 || len(p.Renames) == 0 {
		t.Fatalf("plan places %d φs and %d renames, want some of each", len(p.PhiBlock), len(p.Renames))
	}
	phiBlock, phiName, renames, names := p.PhiBlock, p.PhiName, p.Renames, s.names
	sc.Reset()
	if s.r != nil || s.tree != nil || len(s.vars) != 0 {
		t.Error("reset builder keeps its routine, tree or variable map")
	}
	for k, b := range phiBlock[:cap(phiBlock)] {
		if b != nil {
			t.Errorf("reset plan keeps φ block %d (%s)", k, b.Name)
		}
	}
	for k, n := range phiName[:cap(phiName)] {
		if n != "" {
			t.Errorf("reset plan keeps φ name %d (%s)", k, n)
		}
	}
	for k, rn := range renames[:cap(renames)] {
		if rn.Name != "" {
			t.Errorf("reset plan keeps rename %d (%s)", k, rn.Name)
		}
	}
	for k, n := range names[:cap(names)] {
		if n != "" {
			t.Errorf("reset builder keeps variable name %d (%s)", k, n)
		}
	}
}
