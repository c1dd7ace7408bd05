package dom_test

import (
	"fmt"
	"testing"

	"pgvn/internal/dom"
	"pgvn/internal/ir"
	"pgvn/internal/parser"
)

func parse(t *testing.T, src string) *ir.Routine {
	t.Helper()
	r, err := parser.ParseRoutine(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
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

// diamondLoopSrc:
//
//	entry -> head; head -> a|b; a,b -> tail; tail -> head|exit
const diamondLoopSrc = `
func f(n) {
entry:
  goto head
head:
  if n < 0 goto a else b
a:
  goto tail
b:
  goto tail
tail:
  if n == 0 goto exit else head
exit:
  return n
}
`

func TestIDomDiamondLoop(t *testing.T) {
	r := parse(t, diamondLoopSrc)
	tr := dom.New(r)
	want := map[string]string{
		"head": "entry",
		"a":    "head",
		"b":    "head",
		"tail": "head",
		"exit": "tail",
	}
	for b, d := range want {
		got := tr.IDom(blockByName(t, r, b))
		if got == nil || got.Name != d {
			t.Errorf("idom(%s) = %v, want %s", b, got, d)
		}
	}
	if tr.IDom(r.Entry()) != nil {
		t.Errorf("idom(entry) = %v, want nil", tr.IDom(r.Entry()))
	}
}

func TestDominatesQueries(t *testing.T) {
	r := parse(t, diamondLoopSrc)
	tr := dom.New(r)
	head := blockByName(t, r, "head")
	a := blockByName(t, r, "a")
	b := blockByName(t, r, "b")
	tail := blockByName(t, r, "tail")
	exit := blockByName(t, r, "exit")

	cases := []struct {
		x, y *ir.Block
		want bool
	}{
		{r.Entry(), exit, true},
		{head, tail, true},
		{head, head, true},
		{a, tail, false},
		{b, tail, false},
		{a, b, false},
		{tail, head, false},
		{exit, tail, false},
	}
	for _, c := range cases {
		if got := tr.Dominates(c.x, c.y); got != c.want {
			t.Errorf("Dominates(%s,%s) = %v, want %v", c.x, c.y, got, c.want)
		}
	}
	if tr.StrictlyDominates(head, head) {
		t.Errorf("StrictlyDominates(head,head) = true")
	}
	if !tr.StrictlyDominates(head, a) {
		t.Errorf("StrictlyDominates(head,a) = false")
	}
}

func TestDominatorChildrenCoverTree(t *testing.T) {
	r := parse(t, diamondLoopSrc)
	tr := dom.New(r)
	count := 0
	var walk func(b *ir.Block)
	walk = func(b *ir.Block) {
		count++
		for _, c := range tr.Children(b) {
			if tr.IDom(c) != b {
				t.Errorf("child %s of %s has idom %v", c, b, tr.IDom(c))
			}
			walk(c)
		}
	}
	walk(r.Entry())
	if count != len(r.Blocks) {
		t.Errorf("dom tree covers %d blocks, want %d", count, len(r.Blocks))
	}
}

func TestFrontier(t *testing.T) {
	r := parse(t, diamondLoopSrc)
	tr := dom.New(r)
	df := tr.Frontier()
	get := func(name string) map[string]bool {
		out := map[string]bool{}
		for _, b := range df[blockByName(t, r, name).ID] {
			out[b.Name] = true
		}
		return out
	}
	// a and b merge at tail.
	if f := get("a"); !f["tail"] || len(f) != 1 {
		t.Errorf("DF(a) = %v, want {tail}", f)
	}
	if f := get("b"); !f["tail"] || len(f) != 1 {
		t.Errorf("DF(b) = %v, want {tail}", f)
	}
	// head is in its own frontier via the back edge tail->head.
	if f := get("head"); !f["head"] {
		t.Errorf("DF(head) = %v, want to contain head", f)
	}
	if f := get("tail"); !f["head"] {
		t.Errorf("DF(tail) = %v, want to contain head", f)
	}
}

// TestFrontierSharedRunner covers a merge whose predecessors' runner
// walks meet: of join's preds, l1 and l2 both climb through l, k climbs
// through s, and s itself reaches join along two parallel switch edges.
// Every frontier must list join once.
func TestFrontierSharedRunner(t *testing.T) {
	r := parse(t, `
func f(x) {
entry:
  if x < 0 goto l else s
l:
  if x < -5 goto l1 else l2
l1:
  goto join
l2:
  goto join
s:
  switch x [1: join, 2: k, default: join]
k:
  goto join
join:
  return x
}
`)
	df := dom.New(r).Frontier()
	want := map[string][]string{
		"entry": nil,
		"l":     {"join"},
		"l1":    {"join"},
		"l2":    {"join"},
		"s":     {"join"},
		"k":     {"join"},
		"join":  nil,
	}
	for name, w := range want {
		var got []string
		for _, b := range df[blockByName(t, r, name).ID] {
			got = append(got, b.Name)
		}
		if fmt.Sprint(got) != fmt.Sprint(w) {
			t.Errorf("DF(%s) = %v, want %v", name, got, w)
		}
	}
}

func TestReachableSubgraphDominators(t *testing.T) {
	r := parse(t, diamondLoopSrc)
	head := blockByName(t, r, "head")
	a := blockByName(t, r, "a")
	tail := blockByName(t, r, "tail")
	// Restrict to the subgraph without the head->b edge: then a dominates
	// tail.
	edgeIn := func(e *ir.Edge) bool {
		return !(e.From == head && e.To.Name == "b")
	}
	tr := dom.NewReachable(r, edgeIn)
	if tr.Contains(blockByName(t, r, "b")) {
		t.Errorf("b still contained in restricted tree")
	}
	if got := tr.IDom(tail); got != a {
		t.Errorf("restricted idom(tail) = %v, want a", got)
	}
	if !tr.Dominates(a, tail) {
		t.Errorf("restricted Dominates(a, tail) = false")
	}
}

func TestPostDominators(t *testing.T) {
	r := parse(t, diamondLoopSrc)
	tr := dom.NewPost(r)
	head := blockByName(t, r, "head")
	a := blockByName(t, r, "a")
	b := blockByName(t, r, "b")
	tail := blockByName(t, r, "tail")
	exit := blockByName(t, r, "exit")

	if got := tr.IDom(a); got != tail {
		t.Errorf("ipdom(a) = %v, want tail", got)
	}
	if got := tr.IDom(head); got != tail {
		t.Errorf("ipdom(head) = %v, want tail", got)
	}
	if got := tr.IDom(tail); got != exit {
		t.Errorf("ipdom(tail) = %v, want exit", got)
	}
	if got := tr.IDom(exit); got != nil {
		t.Errorf("ipdom(exit) = %v, want nil (virtual exit)", got)
	}
	if !tr.Dominates(tail, r.Entry()) {
		t.Errorf("tail should postdominate entry")
	}
	if tr.Dominates(a, head) {
		t.Errorf("a should not postdominate head")
	}
	if !tr.Dominates(exit, exit) {
		t.Errorf("postdominance not reflexive")
	}
	_ = b
}

func TestPostDominatorsMultipleReturns(t *testing.T) {
	r := parse(t, `
func g(x) {
entry:
  if x == 0 goto r1 else r2
r1:
  return 1
r2:
  return 2
}
`)
	tr := dom.NewPost(r)
	r1 := blockByName(t, r, "r1")
	r2 := blockByName(t, r, "r2")
	if tr.IDom(r1) != nil || tr.IDom(r2) != nil {
		t.Errorf("returns should be immediately postdominated by the virtual exit")
	}
	if tr.Dominates(r1, r.Entry()) || tr.Dominates(r2, r.Entry()) {
		t.Errorf("neither return postdominates entry")
	}
	if !tr.Contains(r.Entry()) {
		t.Errorf("entry not contained")
	}
}

func TestPostDominatorsInfiniteLoop(t *testing.T) {
	r := parse(t, `
func h(x) {
entry:
  if x == 0 goto spin else out
spin:
  goto spin
out:
  return x
}
`)
	tr := dom.NewPost(r)
	spin := blockByName(t, r, "spin")
	if tr.Contains(spin) {
		t.Errorf("infinite loop block should not be contained in postdom tree")
	}
	if tr.Dominates(spin, r.Entry()) || tr.Dominates(r.Entry(), spin) {
		t.Errorf("postdominance involving infinite loop block should be false")
	}
	// Standard postdominance is defined over paths that reach the exit;
	// the spin path never does, so out postdominates entry.
	out := blockByName(t, r, "out")
	if !tr.Dominates(out, r.Entry()) {
		t.Errorf("out should postdominate entry")
	}
}
