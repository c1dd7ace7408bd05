// Package dom computes dominator and postdominator trees, dominance
// frontiers, and dominator trees restricted to the currently reachable
// subgraph (used by the paper's "complete" algorithm).
//
// The construction is the iterative algorithm of Cooper, Harvey and
// Kennedy, which is simple, robust and fast at compiler-middle-end scale.
// Dominance queries are O(1) via an Euler-tour numbering of the tree.
package dom

import (
	"pgvn/internal/ir"
)

// Tree is a dominator tree over the blocks of one routine. A Tree may
// cover only a subgraph (see NewReachable); blocks outside the subgraph
// have no dominator information and are reported as not contained.
type Tree struct {
	routine *ir.Routine
	post    bool // true if this is a postdominator tree

	// idom[blockID] is the immediate dominator; nil for the root and for
	// blocks outside the covered subgraph. In a postdominator tree the
	// root is the virtual exit, and blocks whose only "postdominator" is
	// the virtual exit have a nil idom but are still contained.
	idom []*ir.Block
	// contained[blockID] reports membership in the covered subgraph.
	contained []bool
	// pre/postNum give the Euler-tour interval of each block in the tree
	// (virtual exit excluded), for O(1) dominance queries. Both are carved
	// from one table.
	preNum, postNum []int
	// children[blockID] lists tree children in deterministic order; the
	// lists are carved CSR-style from one table.
	children [][]*ir.Block
	// rootBlocks lists the tree roots among real blocks: for a forward
	// tree, just the entry; for a postdominator tree, the real-block
	// children of the virtual exit.
	rootBlocks []*ir.Block
	// tab is the storage every table above and Frontier's result are
	// taken from.
	tab treeTables
}

// New computes the dominator tree of the routine's full CFG.
func New(r *ir.Routine) *Tree { return NewIn(nil, r) }

// NewIn is New building in s's dominator-tree slot (nil allocates). The
// tree is valid until s builds another dominator tree or is reset.
func NewIn(s *Scratch, r *ir.Routine) *Tree { return newReachable(s, r, nil) }

// newReachable computes the dominator tree of the subgraph of the
// routine containing only edges for which edgeIn returns true (all edges
// when edgeIn is nil), starting from the entry block, in s. Blocks not
// reachable through such edges are excluded from the tree.
func newReachable(s *Scratch, r *ir.Routine, edgeIn func(*ir.Edge) bool) *Tree {
	n := r.NumBlockIDs()
	t, cs := s.start(r, false, n)

	// RPO of the subgraph. t.contained doubles as the DFS visited set —
	// exactly the blocks the DFS reaches are contained.
	rpoNum := cs.ints.Take(n)
	for i := range rpoNum {
		rpoNum[i] = -1
	}
	seen := t.contained
	// DFS stack depth and post-order length are bounded by the block
	// count, so the carved capacities below never grow.
	stack := cs.bframes.Take(n)[:0]
	blocks := cs.blocks.Take(2 * n)
	postOrd, np := blocks[:n], 0
	stack = append(stack, bframe{b: r.Entry()})
	seen[r.Entry().ID] = true
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.next < len(f.b.Succs) {
			e := f.b.Succs[f.next]
			f.next++
			if edgeIn != nil && !edgeIn(e) {
				continue
			}
			if !seen[e.To.ID] {
				seen[e.To.ID] = true
				stack = append(stack, bframe{b: e.To})
			}
			continue
		}
		postOrd[np] = f.b
		np++
		stack = stack[:len(stack)-1]
	}
	order := blocks[n : n+np]
	for i := 0; i < np; i++ {
		b := postOrd[i]
		k := np - 1 - i
		order[k] = b
		rpoNum[b.ID] = k
	}

	// Iterative idom computation (Cooper–Harvey–Kennedy), written into
	// the tree's (zeroed) idom array directly.
	idom := t.idom
	entry := r.Entry()
	idom[entry.ID] = entry
	intersect := func(a, b *ir.Block) *ir.Block {
		for a != b {
			for rpoNum[a.ID] > rpoNum[b.ID] {
				a = idom[a.ID]
			}
			for rpoNum[b.ID] > rpoNum[a.ID] {
				b = idom[b.ID]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		for _, b := range order[1:] {
			var newIdom *ir.Block
			for _, e := range b.Preds {
				if edgeIn != nil && !edgeIn(e) {
					continue
				}
				p := e.From
				if rpoNum[p.ID] < 0 || idom[p.ID] == nil {
					continue
				}
				if newIdom == nil {
					newIdom = p
				} else {
					newIdom = intersect(newIdom, p)
				}
			}
			if newIdom != nil && idom[b.ID] != newIdom {
				idom[b.ID] = newIdom
				changed = true
			}
		}
	}
	idom[entry.ID] = nil // the root has no immediate dominator

	t.rootBlocks = append(t.rootBlocks, entry)
	t.finish(order, cs)
	return t
}

// finish builds child lists and the Euler-tour numbering. order must list
// contained blocks with parents before children (an RPO works for forward
// trees; for postdominator trees the caller passes a reverse-graph RPO).
// cs provides the Euler-tour stack; callers pass their construction
// scratch, whose earlier carves are dead by the time finish runs.
func (t *Tree) finish(order []*ir.Block, cs *constrScratch) {
	n := len(t.idom)
	// CSR child lists: count per parent (preNum doubles as the counting
	// scratch — the Euler tour below rewrites it; start zeroed it),
	// carve one flat payload, fill in order so parents precede children
	// deterministically.
	nc := 0
	for _, b := range order {
		if p := t.idom[b.ID]; p != nil {
			t.preNum[p.ID]++
			nc++
		}
	}
	flat := t.tab.flat.Take(nc)
	off := 0
	for i := 0; i < n; i++ {
		c := t.preNum[i]
		t.children[i] = flat[off : off : off+c]
		off += c
	}
	for _, b := range order {
		if p := t.idom[b.ID]; p != nil {
			t.children[p.ID] = append(t.children[p.ID], b)
		}
	}
	for i := range t.preNum {
		t.preNum[i] = -1
	}
	clock := 0
	stack := cs.bframes.Take(n)[:0]
	for _, root := range t.rootBlocks {
		stack = append(stack, bframe{b: root})
		t.preNum[root.ID] = clock
		clock++
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.next < len(t.children[f.b.ID]) {
				c := t.children[f.b.ID][f.next]
				f.next++
				t.preNum[c.ID] = clock
				clock++
				stack = append(stack, bframe{b: c})
				continue
			}
			t.postNum[f.b.ID] = clock
			clock++
			stack = stack[:len(stack)-1]
		}
	}
}

// Contains reports whether b is part of the covered subgraph.
func (t *Tree) Contains(b *ir.Block) bool { return t.contained[b.ID] }

// IDom returns the immediate dominator of b, or nil if b is the root, is
// outside the covered subgraph, or (in a postdominator tree) is immediately
// postdominated by the virtual exit.
func (t *Tree) IDom(b *ir.Block) *ir.Block { return t.idom[b.ID] }

// Children returns b's children in the tree, in deterministic order. The
// slice is shared; callers must not modify it.
func (t *Tree) Children(b *ir.Block) []*ir.Block { return t.children[b.ID] }

// Dominates reports whether a dominates b (reflexively) within the covered
// subgraph. For postdominator trees it reads "a postdominates b".
func (t *Tree) Dominates(a, b *ir.Block) bool {
	if !t.contained[a.ID] || !t.contained[b.ID] {
		return false
	}
	if t.preNum[a.ID] < 0 || t.preNum[b.ID] < 0 {
		return false
	}
	return t.preNum[a.ID] <= t.preNum[b.ID] && t.postNum[b.ID] <= t.postNum[a.ID]
}

// StrictlyDominates reports whether a dominates b and a != b.
func (t *Tree) StrictlyDominates(a, b *ir.Block) bool {
	return a != b && t.Dominates(a, b)
}

// Frontier computes the dominance frontier of every contained block
// (Cooper–Harvey–Kennedy "runner" formulation). The result is indexed by
// block ID; entries for non-contained blocks are nil. The runner walk
// runs twice, once to count each frontier and once to fill it, so every
// frontier is carved from one backing array. The tree owns that storage:
// the result is valid until the tree is rebuilt or Frontier runs again.
func (t *Tree) Frontier() [][]*ir.Block {
	n := len(t.idom)
	ints := t.tab.dfInts.Take(2 * n)
	count, last := ints[:n], ints[n:]
	// runners calls visit(runner, b) once for every block b in runner's
	// frontier. last[x] holds 1 + the id of the join block x last
	// received: b's insertions all happen in one iteration of the outer
	// loop, so a runner that already has b has it last — and an earlier
	// pred's walk went on from it to idom(b), so every runner above it
	// has b too.
	runners := func(visit func(runner, b *ir.Block)) {
		clear(last)
		for _, b := range t.routine.Blocks {
			if !t.contained[b.ID] {
				continue
			}
			preds := 0
			for _, e := range b.Preds {
				if t.contained[e.From.ID] {
					preds++
				}
			}
			if preds < 2 {
				continue
			}
			for _, e := range b.Preds {
				runner := e.From
				if !t.contained[runner.ID] {
					continue
				}
				for runner != nil && runner != t.idom[b.ID] {
					if last[runner.ID] == int32(b.ID+1) {
						break
					}
					last[runner.ID] = int32(b.ID + 1)
					visit(runner, b)
					runner = t.idom[runner.ID]
				}
			}
		}
	}
	total := 0
	runners(func(runner, _ *ir.Block) {
		count[runner.ID]++
		total++
	})
	// Both tables come zeroed, which the nil entries of non-contained
	// blocks need.
	df, slab := t.tab.df.Take(n), t.tab.dfFlat.Take(total)
	for id, c := range count {
		if c > 0 {
			df[id] = slab[:0:c]
			slab = slab[c:]
		}
	}
	runners(func(runner, b *ir.Block) {
		df[runner.ID] = append(df[runner.ID], b)
	})
	return df
}

// ContainsID is Contains by block id (arena-ported consumers query by
// dense ids without materializing *ir.Block).
//
//pgvn:hotpath
func (t *Tree) ContainsID(b int) bool { return t.contained[b] }

// IDomID returns the immediate dominator's block id, or -1 under the
// same conditions IDom returns nil.
//
//pgvn:hotpath
func (t *Tree) IDomID(b int) int {
	if d := t.idom[b]; d != nil {
		return d.ID
	}
	return -1
}

// DominatesID is Dominates by block id.
//
//pgvn:hotpath
func (t *Tree) DominatesID(a, b int) bool {
	if !t.contained[a] || !t.contained[b] {
		return false
	}
	if t.preNum[a] < 0 || t.preNum[b] < 0 {
		return false
	}
	return t.preNum[a] <= t.preNum[b] && t.postNum[b] <= t.postNum[a]
}
