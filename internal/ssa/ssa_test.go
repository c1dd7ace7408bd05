package ssa_test

import (
	"testing"

	"pgvn/internal/ir"
	"pgvn/internal/parser"
	"pgvn/internal/ssa"
)

func build(t *testing.T, src string, placement ssa.Placement) *ir.Routine {
	t.Helper()
	r, err := parser.ParseRoutine(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := ssa.Build(r, placement); err != nil {
		t.Fatalf("ssa.Build: %v", err)
	}
	if err := ssa.Verify(r); err != nil {
		t.Fatalf("ssa.Verify: %v\n%s", err, r)
	}
	return r
}

func blockByName(t *testing.T, r *ir.Routine, name string) *ir.Block {
	t.Helper()
	for _, b := range r.Blocks {
		if b.Name == name {
			return b
		}
	}
	t.Fatalf("no block %q", name)
	return nil
}

func countOp(r *ir.Routine, op ir.Op) int {
	n := 0
	r.Instrs(func(i *ir.Instr) {
		if i.Op == op {
			n++
		}
	})
	return n
}

const diamondSrc = `
func f(c, a, b) {
entry:
  if c == 0 goto left else right
left:
  x = a
  goto join
right:
  x = b
  goto join
join:
  return x
}
`

func TestDiamondGetsOnePhi(t *testing.T) {
	for _, placement := range []ssa.Placement{ssa.Minimal, ssa.SemiPruned, ssa.Pruned} {
		r := build(t, diamondSrc, placement)
		if n := countOp(r, ir.OpPhi); n != 1 {
			t.Errorf("placement %v: %d φs, want 1\n%s", placement, n, r)
		}
		join := blockByName(t, r, "join")
		phi := join.Phis()[0]
		// Arg order must match predecessor order: left then right.
		if join.Preds[0].From.Name != "left" {
			t.Fatalf("pred order changed")
		}
		if phi.Args[0].Name != "a" || phi.Args[1].Name != "b" {
			t.Errorf("placement %v: φ args = %s,%s want a,b",
				placement, phi.Args[0].ValueName(), phi.Args[1].ValueName())
		}
		ret := join.Terminator()
		if ret.Args[0] != phi {
			t.Errorf("return does not use the φ")
		}
	}
}

func TestLoopPhi(t *testing.T) {
	r := build(t, `
func f(n) {
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
}
`, ssa.SemiPruned)
	head := blockByName(t, r, "head")
	phis := head.Phis()
	if len(phis) != 1 {
		t.Fatalf("head has %d φs, want 1\n%s", len(phis), r)
	}
	phi := phis[0]
	// Arg from entry is the constant 0; arg from body is the increment.
	entryIdx, bodyIdx := -1, -1
	for k, e := range head.Preds {
		switch e.From.Name {
		case "entry":
			entryIdx = k
		case "body":
			bodyIdx = k
		}
	}
	if phi.Args[entryIdx].Op != ir.OpConst || phi.Args[entryIdx].Const != 0 {
		t.Errorf("entry arg = %v", phi.Args[entryIdx])
	}
	if phi.Args[bodyIdx].Op != ir.OpAdd {
		t.Errorf("body arg = %v", phi.Args[bodyIdx])
	}
	// The increment must add 1 to the φ itself (the cycle).
	if add := phi.Args[bodyIdx]; add.Args[0] != phi && add.Args[1] != phi {
		t.Errorf("loop increment does not use the φ: %v", add)
	}
}

func TestStraightLineNoPhis(t *testing.T) {
	r := build(t, `
func f(a) {
entry:
  x = a + 1
  x = x * 2
  x = x - 3
  return x
}
`, ssa.SemiPruned)
	if n := countOp(r, ir.OpPhi); n != 0 {
		t.Errorf("straight line code got %d φs", n)
	}
	if n := countOp(r, ir.OpVarRead) + countOp(r, ir.OpVarWrite); n != 0 {
		t.Errorf("%d pseudo instructions remain", n)
	}
}

func TestLocalVariableNoPhisWhenSemiPruned(t *testing.T) {
	// t is written and read only within each block: no φ needed for it.
	src := `
func f(c, a) {
entry:
  t = a + 1
  u = t * 2
  if c == 0 goto l else r
l:
  t = a + 3
  u = t * 4
  goto join
r:
  t = a + 5
  u = t * 6
  goto join
join:
  return u
}
`
	semi := build(t, src, ssa.SemiPruned)
	// u is upward-exposed in join? No: u is read in join but defined in
	// both l and r, so it is upward exposed there -> global -> φ for u.
	// t is never upward-exposed -> no φ for t under semi-pruned.
	phis := blockByName(t, semi, "join").Phis()
	if len(phis) != 1 {
		t.Errorf("semi-pruned: %d φs at join, want 1 (only u)\n%s", len(phis), semi)
	}

	minimal := build(t, src, ssa.Minimal)
	if n := len(blockByName(t, minimal, "join").Phis()); n != 2 {
		t.Errorf("minimal: %d φs at join, want 2 (t and u)", n)
	}

	pruned := build(t, src, ssa.Pruned)
	if n := len(blockByName(t, pruned, "join").Phis()); n != 1 {
		t.Errorf("pruned: %d φs at join, want 1 (only u live-in)", n)
	}
}

func TestPrunedOmitsDeadPhi(t *testing.T) {
	// x is merged at join but never read after it: pruned drops the φ,
	// semi-pruned keeps it (x is upward-exposed in l2, making it global).
	src := `
func f(c, a) {
entry:
  x = a
  if c == 0 goto l1 else l2
l1:
  x = a + 1
  goto join
l2:
  y = x + 2
  goto join
join:
  return 7
}
`
	pruned := build(t, src, ssa.Pruned)
	if n := len(blockByName(t, pruned, "join").Phis()); n != 0 {
		t.Errorf("pruned: %d φs at join, want 0\n%s", n, pruned)
	}
	semi := build(t, src, ssa.SemiPruned)
	if n := len(blockByName(t, semi, "join").Phis()); n != 1 {
		t.Errorf("semi-pruned: %d φs at join, want 1\n%s", n, semi)
	}
}

func TestUndefinedReadGetsZero(t *testing.T) {
	r := build(t, `
func f(c) {
entry:
  if c == 0 goto def else use
def:
  x = 5
  goto use
use:
  return x
}
`, ssa.SemiPruned)
	use := blockByName(t, r, "use")
	phi := use.Phis()[0]
	// One arg is 5, the other the synthesized zero.
	vals := map[int64]bool{}
	for _, a := range phi.Args {
		if a.Op != ir.OpConst {
			t.Fatalf("φ arg not const: %v", a)
		}
		vals[a.Const] = true
	}
	if !vals[5] || !vals[0] {
		t.Errorf("φ args = %v, want {0,5}", vals)
	}
}

func TestParamsAreDefs(t *testing.T) {
	r := build(t, `
func f(x, n) {
entry:
  goto head
head:
  if x < n goto body else exit
body:
  x = x + 1
  goto head
exit:
  return x
}
`, ssa.SemiPruned)
	head := blockByName(t, r, "head")
	phi := head.Phis()[0]
	var fromEntry *ir.Instr
	for k, e := range head.Preds {
		if e.From == r.Entry() {
			fromEntry = phi.Args[k]
		}
	}
	if fromEntry == nil || fromEntry.Op != ir.OpParam || fromEntry.Name != "x" {
		t.Errorf("φ entry arg = %v, want param x", fromEntry)
	}
}

func TestSwitchSSA(t *testing.T) {
	r := build(t, `
func f(s, a) {
entry:
  switch s [1: one, 2: two, default: other]
one:
  x = a + 1
  goto join
two:
  x = a + 2
  goto join
other:
  x = a + 3
  goto join
join:
  return x
}
`, ssa.SemiPruned)
	join := blockByName(t, r, "join")
	phi := join.Phis()[0]
	if len(phi.Args) != 3 {
		t.Fatalf("switch join φ has %d args, want 3", len(phi.Args))
	}
}

func TestStaticallyUnreachableBlock(t *testing.T) {
	// The island block writes x but is unreachable; SSA must still
	// produce a valid routine.
	r := build(t, `
func f(a) {
entry:
  x = a
  goto out
island:
  x = 99
  y = x + 1
  goto out
out:
  return x
}
`, ssa.SemiPruned)
	if !r.IsSSA() {
		t.Fatalf("pseudo instructions remain:\n%s", r)
	}
}

const nestedLoopSrc = `
func f(n, m) {
entry:
  s = 0
  i = 0
  goto oh
oh:
  if i < n goto ob else done
ob:
  j = 0
  goto ih
ih:
  if j < m goto ib else ol
ib:
  s = s + i * j
  j = j + 1
  goto ih
ol:
  i = i + 1
  goto oh
done:
  return s
}
`

func TestNestedLoopsSSA(t *testing.T) {
	r := build(t, nestedLoopSrc, ssa.SemiPruned)
	// Semi-pruned placement has no liveness, so the global j also gets a
	// (dead) φ at the outer head: s, i, j.
	oh := blockByName(t, r, "oh")
	ih := blockByName(t, r, "ih")
	if n := len(oh.Phis()); n != 3 {
		t.Errorf("semi-pruned outer head has %d φs, want 3 (s, i, dead j)\n%s", n, r)
	}
	if n := len(ih.Phis()); n != 2 {
		t.Errorf("inner head has %d φs, want 2 (s, j)\n%s", n, r)
	}

	// Pruned placement drops the dead j φ at the outer head.
	pr, err := parser.ParseRoutine(nestedLoopSrc)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := ssa.Build(pr, ssa.Pruned); err != nil {
		t.Fatalf("ssa.Build pruned: %v", err)
	}
	if n := len(blockByName(t, pr, "oh").Phis()); n != 2 {
		t.Errorf("pruned outer head has %d φs, want 2 (s, i)\n%s", n, pr)
	}
}

func TestVerifyDetectsViolation(t *testing.T) {
	r := build(t, diamondSrc, ssa.SemiPruned)
	// Move the φ's first argument definition into the join block *after*
	// the φ: now the φ's use is not dominated by the def. Simulate by
	// making the φ use a value defined in join itself.
	join := blockByName(t, r, "join")
	phi := join.Phis()[0]
	bad := r.InsertBefore(join.Terminator(), ir.OpConst)
	bad.Const = 42
	phi.SetArg(0, bad)
	if err := ssa.Verify(r); err == nil {
		t.Errorf("Verify accepted a φ arg defined in the φ's own block")
	}
}

// TestBuildRejectsCyclicReads builds a variable-form routine whose reads
// are used before they execute, so that each resolves to the other:
// a := y; b := x; x = read a; y = read b. It verifies structurally (the
// variable form has no dominance rule), but no value can stand for
// either read, so both constructions must fail instead of looping.
func TestBuildRejectsCyclicReads(t *testing.T) {
	r := ir.NewRoutine("f")
	entry := r.Entry()
	x := r.Append(entry, ir.OpVarRead)
	x.Name = "a"
	y := r.Append(entry, ir.OpVarRead)
	y.Name = "b"
	r.Append(entry, ir.OpReturn, x)
	r.InsertBefore(x, ir.OpVarWrite, y).Name = "a"
	r.InsertBefore(x, ir.OpVarWrite, x).Name = "b"
	if err := r.Verify(); err != nil {
		t.Fatalf("input does not verify: %v", err)
	}
	if _, err := ssa.BuildFrom(r, ssa.SemiPruned); err == nil {
		t.Errorf("BuildFrom accepted cyclic reads")
	}
	if err := ssa.Build(r, ssa.SemiPruned); err == nil {
		t.Errorf("Build accepted cyclic reads:\n%s", r)
	}
}
