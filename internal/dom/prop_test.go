package dom_test

import (
	"testing"

	"pgvn/internal/dom"
	"pgvn/internal/ir"
	"pgvn/internal/ssa"
	"pgvn/internal/workload"
)

// reachableAvoiding returns the set of blocks reachable from start without
// passing through the avoided block (nil to avoid nothing).
func reachableAvoiding(r *ir.Routine, start, avoid *ir.Block) map[*ir.Block]bool {
	seen := map[*ir.Block]bool{}
	if start == avoid {
		return seen
	}
	stack := []*ir.Block{start}
	seen[start] = true
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range b.Succs {
			s := e.To
			if s != avoid && !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return seen
}

// TestDominatorsAgainstBruteForce checks, on generated CFGs, that the tree
// answers match the definition: a dominates b iff b is unreachable from
// the entry when a is removed (reflexively).
func TestDominatorsAgainstBruteForce(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		r := workload.Generate("g", workload.GenConfig{
			Seed: 500 + seed, Stmts: 25, Params: 2, MaxLoopDepth: 2,
		})
		tree := dom.New(r)
		full := reachableAvoiding(r, r.Entry(), nil)
		for _, a := range r.Blocks {
			without := reachableAvoiding(r, r.Entry(), a)
			for _, b := range r.Blocks {
				if !full[b] {
					if tree.Contains(b) {
						t.Fatalf("seed %d: unreachable %s contained", seed, b)
					}
					continue
				}
				want := a == b || (full[a] && !without[b])
				if !full[a] {
					want = false
				}
				if got := tree.Dominates(a, b); got != want {
					t.Fatalf("seed %d: Dominates(%s,%s) = %v, want %v", seed, a, b, got, want)
				}
			}
		}
		// idom must be the unique closest strict dominator: it strictly
		// dominates b, and every other strict dominator of b dominates it.
		for _, b := range r.Blocks {
			if !full[b] || b == r.Entry() {
				continue
			}
			id := tree.IDom(b)
			if id == nil {
				t.Fatalf("seed %d: reachable non-entry %s has no idom", seed, b)
			}
			if !tree.StrictlyDominates(id, b) {
				t.Fatalf("seed %d: idom(%s)=%s does not strictly dominate it", seed, b, id)
			}
			for _, a := range r.Blocks {
				if tree.StrictlyDominates(a, b) && !tree.Dominates(a, id) {
					t.Fatalf("seed %d: strict dominator %s of %s does not dominate idom %s",
						seed, a, b, id)
				}
			}
		}
	}
}

// reachesReturnAvoiding reports whether any return block is reachable from
// start without passing through avoid.
func reachesReturnAvoiding(start, avoid *ir.Block) bool {
	if start == avoid {
		return false
	}
	seen := map[*ir.Block]bool{start: true}
	stack := []*ir.Block{start}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if term := b.Terminator(); term != nil && term.Op == ir.OpReturn {
			return true
		}
		for _, e := range b.Succs {
			if e.To != avoid && !seen[e.To] {
				seen[e.To] = true
				stack = append(stack, e.To)
			}
		}
	}
	return false
}

// TestPostDominatorsAgainstBruteForce: a postdominates b iff b cannot
// reach a return without passing through a.
func TestPostDominatorsAgainstBruteForce(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		r := workload.Generate("g", workload.GenConfig{
			Seed: 900 + seed, Stmts: 25, Params: 2, MaxLoopDepth: 2,
		})
		tree := dom.NewPost(r)
		for _, a := range r.Blocks {
			for _, b := range r.Blocks {
				if !tree.Contains(a) || !tree.Contains(b) {
					continue
				}
				want := a == b || !reachesReturnAvoiding(b, a)
				if got := tree.Dominates(a, b); got != want {
					t.Fatalf("seed %d: PostDominates(%s,%s) = %v, want %v",
						seed, a, b, got, want)
				}
			}
		}
	}
}

// TestFrontierAgainstDefinition checks the dominance frontier definition:
// y ∈ DF(x) iff x dominates a predecessor of y but does not strictly
// dominate y.
func TestFrontierAgainstDefinition(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		r := workload.Generate("g", workload.GenConfig{
			Seed: 1300 + seed, Stmts: 25, Params: 2, MaxLoopDepth: 2,
		})
		tree := dom.New(r)
		df := tree.Frontier()
		inDF := func(x, y *ir.Block) bool {
			for _, b := range df[x.ID] {
				if b == y {
					return true
				}
			}
			return false
		}
		for _, x := range r.Blocks {
			if !tree.Contains(x) {
				continue
			}
			seen := map[*ir.Block]bool{}
			for _, y := range df[x.ID] {
				if seen[y] {
					t.Fatalf("seed %d: DF(%s) lists %s twice", seed, x, y)
				}
				seen[y] = true
			}
			for _, y := range r.Blocks {
				if !tree.Contains(y) {
					continue
				}
				want := false
				for _, e := range y.Preds {
					if tree.Contains(e.From) && tree.Dominates(x, e.From) {
						want = true
						break
					}
				}
				want = want && !tree.StrictlyDominates(x, y)
				if got := inDF(x, y); got != want {
					t.Fatalf("seed %d: DF(%s) contains %s = %v, want %v",
						seed, x, y, got, want)
				}
			}
		}
	}
}

// TestReachableTreeConsistency: restricting to all edges must reproduce
// the full tree, and restricting to none must contain only the entry.
func TestReachableTreeConsistency(t *testing.T) {
	r := workload.Generate("g", workload.GenConfig{Seed: 77, Stmts: 30, Params: 2, MaxLoopDepth: 2})
	full := dom.New(r)
	all := dom.NewReachable(r, func(*ir.Edge) bool { return true })
	none := dom.NewReachable(r, func(*ir.Edge) bool { return false })
	for _, a := range r.Blocks {
		if full.Contains(a) != all.Contains(a) {
			t.Fatalf("containment mismatch at %s", a)
		}
		for _, b := range r.Blocks {
			if full.Dominates(a, b) != all.Dominates(a, b) {
				t.Fatalf("Dominates(%s,%s) differs between full and all-edges trees", a, b)
			}
		}
		if none.Contains(a) != (a == r.Entry()) {
			t.Fatalf("no-edges tree containment wrong at %s", a)
		}
	}
}

// TestSSAVerifyOnGeneratedCorpus exercises the SSA verifier across many
// generated routines (it must accept all of ssa.Build's output).
func TestSSAVerifyOnGeneratedCorpus(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		for _, placement := range []ssa.Placement{ssa.Minimal, ssa.SemiPruned, ssa.Pruned} {
			r := workload.Generate("g", workload.GenConfig{
				Seed: 1700 + seed, Stmts: 30, Params: 3, MaxLoopDepth: 2,
			})
			if err := ssa.Build(r, placement); err != nil {
				t.Fatalf("seed %d/%v: %v", seed, placement, err)
			}
			if err := ssa.Verify(r); err != nil {
				t.Fatalf("seed %d/%v: %v", seed, placement, err)
			}
		}
	}
}
