package dom

import (
	"pgvn/internal/ir"
	"pgvn/internal/slab"
)

// Tree construction is on the analysis setup path: every core.Run builds
// a dominator and a postdominator tree, so at corpus scale construction
// scratch dominated the package's allocation profile. A Scratch keeps
// the storage of one dominator tree and one postdominator tree, and the
// construction worklists and numberings that never escape, for the next
// construction. Its zero value is ready to use; a nil *Scratch makes
// each construction allocate its own. Reset zeroes what the last routine
// was handed and keeps the capacity, so an idle Scratch pins no block of
// a finished routine (DESIGN §17).
type Scratch struct {
	fwd, post Tree
	cs        constrScratch
}

// Reset zeroes every table the last routine was handed; a tree built in
// s is unusable afterwards.
func (s *Scratch) Reset() {
	s.fwd.reset()
	s.post.reset()
	s.cs.ints.Reset()
	s.cs.bools.Reset()
	s.cs.blocks.Reset()
	s.cs.bframes.Reset()
	s.cs.iframes.Reset()
}

// bframe is a DFS frame over *ir.Block successors (forward graph).
type bframe struct {
	b    *ir.Block
	next int
}

// iframe is a DFS frame over int block ids (reverse graph, where the
// virtual exit has no *ir.Block).
type iframe struct {
	id   int
	next int
}

// constrScratch bundles the construction-local buffers. Every consumer
// is bounded by the block count, so the append sites never reallocate.
type constrScratch struct {
	ints    slab.Table[int]
	bools   slab.Table[bool]
	blocks  slab.Table[*ir.Block]
	bframes slab.Table[bframe]
	iframes slab.Table[iframe]
}

// treeTables is the storage a Tree's views are carved from.
type treeTables struct {
	idom, flat, roots, dfFlat slab.Table[*ir.Block]
	contained                 slab.Table[bool]
	nums                      slab.Table[int]
	children, df              slab.Table[[]*ir.Block]
	dfInts                    slab.Table[int32]
}

// start returns the tree and construction buffers for building a tree
// over r in s: s's dominator or postdominator tree slot, or new ones for
// a nil s. The tree is sized for n block ids, its tables zeroed.
func (s *Scratch) start(r *ir.Routine, post bool, n int) (*Tree, *constrScratch) {
	var t *Tree
	var cs *constrScratch
	switch {
	case s == nil:
		t, cs = &Tree{}, &constrScratch{}
	case post:
		t, cs = &s.post, &s.cs
	default:
		t, cs = &s.fwd, &s.cs
	}
	*t = Tree{routine: r, post: post, tab: t.tab}
	tab := &t.tab
	t.idom = tab.idom.Take(n)
	t.contained = tab.contained.Take(n)
	nums := tab.nums.Take(2 * n)
	t.preNum, t.postNum = nums[:n:n], nums[n:]
	t.children = tab.children.Take(n)
	t.rootBlocks = tab.roots.Take(n)[:0]
	return t, cs
}

// reset zeroes the tree's tables and drops its views.
func (t *Tree) reset() {
	tab := &t.tab
	tab.idom.Reset()
	tab.flat.Reset()
	tab.roots.Reset()
	tab.dfFlat.Reset()
	tab.contained.Reset()
	tab.nums.Reset()
	tab.children.Reset()
	tab.df.Reset()
	tab.dfInts.Reset()
	*t = Tree{tab: *tab}
}
