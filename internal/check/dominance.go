package check

import (
	"fmt"

	"pgvn/internal/ir"
)

// Dominance independently re-verifies the SSA dominance property of a
// transformed routine: every use is dominated by its definition (a φ's
// use of its k'th argument occurring at the end of the k'th predecessor
// block). It deliberately does not reuse internal/dom or ssa.Verify's
// dominator tree: the dominator sets are recomputed here with the
// classic iterative bit-vector dataflow algorithm, so a bug in the
// production dominance code cannot mask a bug in the transformations it
// guards.
//
// The only use rewrites EliminateRedundancies performs are leader
// substitutions, so a post-opt dominance break means a leader was
// substituted at a use it does not dominate — hence the violations carry
// RuleLeaderDominance. Statically unreachable blocks are exempt, as in
// ssa.Verify; routines not in SSA form are skipped.
func Dominance(r *ir.Routine) []Violation {
	if !r.IsSSA() {
		return nil
	}
	n := r.NumBlockIDs()
	reach := make([]bool, n)
	var stack []*ir.Block
	reach[r.Entry().ID] = true
	stack = append(stack, r.Entry())
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range b.Succs {
			if !reach[e.To.ID] {
				reach[e.To.ID] = true
				stack = append(stack, e.To)
			}
		}
	}
	dom := dominatorSets(r, reach)
	dominates := func(a, b *ir.Block) bool { return dom[b.ID].has(a.ID) }

	pos := make(map[*ir.Instr]int)
	for _, b := range r.Blocks {
		for k, i := range b.Instrs {
			pos[i] = k
		}
	}
	var vs []Violation
	for _, b := range r.Blocks {
		if !reach[b.ID] {
			continue
		}
		for k, i := range b.Instrs {
			for ai, a := range i.Args {
				bad := false
				switch {
				case i.Op == ir.OpPhi:
					pred := b.Preds[ai].From
					if reach[pred.ID] && !dominates(a.Block, pred) {
						bad = true
					}
				case a.Block == b:
					bad = pos[a] >= k
				default:
					bad = !reach[a.Block.ID] || !dominates(a.Block, b)
				}
				if bad {
					vs = append(vs, Violation{
						Rule: RuleLeaderDominance,
						Detail: fmt.Sprintf("use of %s (def in %s) at %s in %s is not dominated by its definition",
							a.ValueName(), a.Block.Name, i, b.Name),
					})
				}
			}
		}
	}
	return vs
}

// bitset is a fixed-size bit vector over block IDs.
type bitset []uint64

func newBitset(n int) bitset    { return make(bitset, (n+63)/64) }
func (s bitset) has(i int) bool { return s[i/64]&(1<<(uint(i)%64)) != 0 }
func (s bitset) set(i int)      { s[i/64] |= 1 << (uint(i) % 64) }
func (s bitset) fill() {
	for k := range s {
		s[k] = ^uint64(0)
	}
}

// intersect ands o into s and reports whether s changed.
func (s bitset) intersect(o bitset) bool {
	changed := false
	for k := range s {
		if v := s[k] & o[k]; v != s[k] {
			s[k] = v
			changed = true
		}
	}
	return changed
}

// dominatorSets computes dom[b] = the set of blocks dominating b, for
// every reachable block, by iterating dom(b) = {b} ∪ ⋂ dom(p) over the
// reachable predecessors p to a fixpoint from the ⊤ initialization.
func dominatorSets(r *ir.Routine, reach []bool) []bitset {
	n := r.NumBlockIDs()
	dom := make([]bitset, n)
	for _, b := range r.Blocks {
		dom[b.ID] = newBitset(n)
		if b == r.Entry() {
			dom[b.ID].set(b.ID)
		} else {
			dom[b.ID].fill()
		}
	}
	scratch := newBitset(n)
	for changed := true; changed; {
		changed = false
		for _, b := range r.Blocks {
			if b == r.Entry() || !reach[b.ID] {
				continue
			}
			scratch.fill()
			for _, e := range b.Preds {
				if reach[e.From.ID] {
					scratch.intersect(dom[e.From.ID])
				}
			}
			scratch.set(b.ID)
			if dom[b.ID].intersect(scratch) {
				changed = true
			}
		}
	}
	return dom
}
