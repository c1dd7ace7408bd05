package dom

import "pgvn/internal/ir"

// NewPost computes the postdominator tree of the routine. A virtual exit
// node is appended whose predecessors are all return blocks, so routines
// with several returns are handled uniformly. Blocks that cannot reach any
// return (e.g. bodies of infinite loops) are not contained in the tree and
// never postdominate or get postdominated.
//
// On the returned tree, Dominates(a, b) reads "a postdominates b"; IDom
// returns the immediate postdominator (nil when it is the virtual exit).
func NewPost(r *ir.Routine) *Tree { return NewPostIn(nil, r) }

// NewPostIn is NewPost building in s's postdominator-tree slot (nil
// allocates). The tree is valid until s builds another postdominator
// tree or is reset.
func NewPostIn(s *Scratch, r *ir.Routine) *Tree {
	n := r.NumBlockIDs()
	t, cs := s.start(r, true, n)
	virtual := n // index of the virtual exit in the int-based arrays

	// One blocks carve per construction: byID stays live through the CHK
	// loop, exits through the DFS, order through finish.
	blocks := cs.blocks.Take(3 * n)
	byID := blocks[:n]
	for _, b := range r.Blocks {
		byID[b.ID] = b
	}
	exits := blocks[n : n : 2*n]
	for _, b := range r.Blocks {
		if term := b.Terminator(); term != nil && term.Op == ir.OpReturn {
			exits = append(exits, b)
		}
	}

	// Reverse-graph RPO from the virtual exit. Successor order in the
	// reverse graph is the deterministic Preds order. All int arrays are
	// one carve; the post-order length is bounded by n+1 nodes.
	nv := n + 1
	ints := cs.ints.Take(4 * nv)
	rpoNum := ints[:nv]
	idom := ints[nv : 2*nv]
	postOrd := ints[2*nv : 2*nv : 3*nv]
	orderIDs := ints[3*nv : 4*nv]
	for i := 0; i < nv; i++ {
		rpoNum[i] = -1
		idom[i] = -1
	}
	seen := cs.bools.Take(nv)
	seen[virtual] = true
	stack := cs.iframes.Take(nv)[:0]
	stack = append(stack, iframe{id: virtual})
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		// Reverse-graph successors, iterated in place (the virtual exit's
		// are the return blocks, a real block's are its CFG predecessors):
		// the edge list is walked directly so no per-visit slice is built.
		var s *ir.Block
		if f.id == virtual {
			if f.next < len(exits) {
				s = exits[f.next]
			}
		} else if b := byID[f.id]; f.next < len(b.Preds) {
			s = b.Preds[f.next].From
		}
		if s != nil {
			f.next++
			if !seen[s.ID] {
				seen[s.ID] = true
				stack = append(stack, iframe{id: s.ID})
			}
			continue
		}
		postOrd = append(postOrd, f.id)
		stack = stack[:len(stack)-1]
	}
	orderIDs = orderIDs[:len(postOrd)]
	for i, id := range postOrd {
		k := len(postOrd) - 1 - i
		orderIDs[k] = id
		rpoNum[id] = k
	}

	// CHK over the reverse graph with the virtual exit as root.
	idom[virtual] = virtual
	intersect := func(a, b int) int {
		for a != b {
			for rpoNum[a] > rpoNum[b] {
				a = idom[a]
			}
			for rpoNum[b] > rpoNum[a] {
				b = idom[b]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		for _, id := range orderIDs[1:] {
			b := byID[id]
			// Reverse-graph predecessors of b are its CFG successors,
			// plus the virtual exit if b is a return block.
			newIdom := -1
			consider := func(p int) {
				if rpoNum[p] < 0 || idom[p] < 0 {
					return
				}
				if newIdom < 0 {
					newIdom = p
				} else {
					newIdom = intersect(newIdom, p)
				}
			}
			for _, e := range b.Succs {
				consider(e.To.ID)
			}
			if term := b.Terminator(); term != nil && term.Op == ir.OpReturn {
				consider(virtual)
			}
			if newIdom >= 0 && idom[id] != newIdom {
				idom[id] = newIdom
				changed = true
			}
		}
	}

	// t.idom and t.contained were zeroed by start; only contained
	// blocks are written.
	order := blocks[2*n : 2*n : 3*n]
	for _, id := range orderIDs {
		if id == virtual {
			continue
		}
		t.contained[id] = true
		if p := idom[id]; p != virtual && p >= 0 {
			t.idom[id] = byID[p]
		}
	}
	for _, id := range orderIDs {
		if id == virtual {
			continue
		}
		b := byID[id]
		order = append(order, b)
		if t.idom[id] == nil {
			t.rootBlocks = append(t.rootBlocks, b)
		}
	}
	t.finish(order, cs)
	return t
}
