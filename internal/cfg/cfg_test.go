package cfg_test

import (
	"testing"

	"pgvn/internal/cfg"
	"pgvn/internal/ir"
	"pgvn/internal/parser"
)

// loopSrc has a while loop with a conditional inside:
//
//	entry -> head -> body -> latch -> head (back edge)
//	                 body -> latch
//	         head -> exit
const loopSrc = `
func f(n) {
entry:
  i = 0
  goto head
head:
  if i < n goto body else exit
body:
  if i == 3 goto skip else work
work:
  i = i + 1
  goto latch
skip:
  i = i + 2
  goto latch
latch:
  goto head
exit:
  return i
}
`

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

func TestReversePostOrder(t *testing.T) {
	r := parse(t, loopSrc)
	o := cfg.ReversePostOrder(r)
	if len(o.Blocks) != 7 {
		t.Fatalf("got %d blocks in RPO, want 7", len(o.Blocks))
	}
	if o.Blocks[0] != r.Entry() || o.Number[r.Entry().ID] != 0 {
		t.Fatalf("entry not first in RPO")
	}
	// Every edge except the back edge must go from lower to higher RPO.
	for _, b := range r.Blocks {
		for _, e := range b.Succs {
			if e.To.Name == "head" && e.From.Name == "latch" {
				if !o.IsBackEdge(e) {
					t.Errorf("latch->head not classified as back edge")
				}
				continue
			}
			if o.Number[e.From.ID] >= o.Number[e.To.ID] {
				t.Errorf("forward edge %v has RPO %d >= %d", e, o.Number[e.From.ID], o.Number[e.To.ID])
			}
			if o.IsBackEdge(e) {
				t.Errorf("edge %v misclassified as back edge", e)
			}
		}
	}
}

func TestRPOUnreachableBlocks(t *testing.T) {
	r := parse(t, `
func g(x) {
entry:
  goto out
island:
  goto out
out:
  return x
}
`)
	o := cfg.ReversePostOrder(r)
	island := blockByName(t, r, "island")
	if o.Reachable(island) {
		t.Errorf("island reported reachable")
	}
	if o.Number[island.ID] != -1 {
		t.Errorf("island RPO = %d, want -1", o.Number[island.ID])
	}
	if len(o.Blocks) != 2 {
		t.Errorf("RPO covers %d blocks, want 2", len(o.Blocks))
	}
	for _, e := range island.Succs {
		if o.IsBackEdge(e) {
			t.Errorf("edge from unreachable block classified as back edge")
		}
	}
}
