package ir

// These tests exercise the hardened structural checks in Verify: duplicate
// switch case values, phantom pred-list edges with no backing successor
// slot, and nil Params entries. They live in-package because forging a
// phantom edge requires the unexported Edge indices, and they build
// routines by hand because the parser depends on this package.

import (
	"strings"
	"testing"
)

// switchRoutine builds
//
//	e: switch s [c0: a, c1: b, default: d]
//
// with each target returning a constant.
func switchRoutine(t *testing.T, c0, c1 int64) *Routine {
	t.Helper()
	r := NewRoutine("f")
	e := r.Entry()
	targets := []*Block{r.NewBlock("a"), r.NewBlock("b"), r.NewBlock("d")}
	s := r.AddParam("s")
	sw := r.Append(e, OpSwitch, s)
	sw.Block.Cases = []int64{c0, c1}
	for _, b := range targets {
		r.AddEdge(e, b)
		r.Append(b, OpReturn, r.ConstInt(b, 0))
	}
	return r
}

func TestVerifyRejectsDuplicateSwitchCase(t *testing.T) {
	if err := switchRoutine(t, 1, 2).Verify(); err != nil {
		t.Fatalf("distinct cases should verify: %v", err)
	}
	err := switchRoutine(t, 1, 1).Verify()
	if err == nil {
		t.Fatal("duplicate switch cases not rejected")
	}
	if !strings.Contains(err.Error(), "duplicate case 1") {
		t.Fatalf("wrong error for duplicate case: %v", err)
	}
}

func TestVerifyRejectsPhantomPredEdge(t *testing.T) {
	r := NewRoutine("f")
	e := r.Entry()
	a := r.NewBlock("a")
	r.Append(e, OpJump)
	r.AddEdge(e, a)
	r.Append(a, OpReturn, r.ConstInt(a, 0))
	if err := r.Verify(); err != nil {
		t.Fatalf("base routine should verify: %v", err)
	}
	// Fabricate a pred-list entry that no successor slot backs. Its
	// outIndex points at e's real (distinct) edge, so only the converse
	// mirror check can catch it.
	ph := &Edge{From: e, To: a, outIndex: 0, inIndex: len(a.Preds)}
	a.Preds = append(a.Preds, ph)
	err := r.Verify()
	if err == nil {
		t.Fatal("phantom pred edge not rejected")
	}
	if !strings.Contains(err.Error(), "not mirrored in source succs") {
		t.Fatalf("wrong error for phantom edge: %v", err)
	}
}

func TestVerifyRejectsNilParam(t *testing.T) {
	r := NewRoutine("f")
	e := r.Entry()
	p := r.AddParam("a")
	r.Append(e, OpReturn, p)
	if err := r.Verify(); err != nil {
		t.Fatalf("base routine should verify: %v", err)
	}
	r.Params = append(r.Params, nil)
	err := r.Verify()
	if err == nil {
		t.Fatal("nil param not rejected")
	}
	if !strings.Contains(err.Error(), "param 1 is nil") {
		t.Fatalf("wrong error for nil param: %v", err)
	}
}
