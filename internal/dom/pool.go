package dom

import (
	"sync"

	"pgvn/internal/ir"
)

// Tree construction is on the analysis setup path: every core.Run builds
// a dominator and a postdominator tree, so at corpus scale construction
// scratch dominated the package's allocation profile. Two pools fix
// that: treePool recycles the storage a Tree retains for its lifetime
// (idom, contained, Euler numbers, CSR child lists), and constrPool
// recycles the per-construction worklists and numberings that never
// escape. Both are optional — callers that never Release simply fall
// back to garbage collection. Both drop their *ir.Block pointers when
// released: a pooled buffer must not pin a finished routine (and, since
// clones are carved from a few slabs, every object of it) in memory.

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

// constrScratch bundles the construction-local buffers. Methods hand out
// zero-length carves with fixed capacity; every consumer is bounded by
// the block count, so the append sites below never reallocate.
type constrScratch struct {
	ints    []int
	bools   []bool
	blocks  []*ir.Block
	bframes []bframe
	iframes []iframe

	// usedBlocks and usedBframes are the high-water lengths handed out
	// since the last release: release clears only those prefixes.
	usedBlocks, usedBframes int
}

var constrPool sync.Pool

func getConstr() *constrScratch {
	s, _ := constrPool.Get().(*constrScratch)
	if s == nil {
		s = &constrScratch{}
	}
	return s
}

func (s *constrScratch) release() {
	clear(s.blocks[:s.usedBlocks])
	clear(s.bframes[:s.usedBframes])
	s.usedBlocks, s.usedBframes = 0, 0
	constrPool.Put(s)
}

// intsN returns an uninitialized int buffer of length n (callers fill
// their own sentinel values).
func (s *constrScratch) intsN(n int) []int {
	if cap(s.ints) < n {
		s.ints = make([]int, n)
	}
	return s.ints[:n]
}

// boolsN returns a false-filled bool buffer of length n.
func (s *constrScratch) boolsN(n int) []bool {
	if cap(s.bools) < n {
		s.bools = make([]bool, n)
	}
	b := s.bools[:n]
	clear(b)
	return b
}

// blocksN returns an uninitialized block-pointer buffer of length n.
func (s *constrScratch) blocksN(n int) []*ir.Block {
	if cap(s.blocks) < n {
		s.blocks = make([]*ir.Block, n)
	}
	s.usedBlocks = max(s.usedBlocks, n)
	return s.blocks[:n]
}

// bframesN returns an empty block-frame stack with capacity n.
func (s *constrScratch) bframesN(n int) []bframe {
	if cap(s.bframes) < n {
		s.bframes = make([]bframe, n)
	}
	s.usedBframes = max(s.usedBframes, n)
	return s.bframes[:0:n]
}

// iframesN returns an empty id-frame stack with capacity n.
func (s *constrScratch) iframesN(n int) []iframe {
	if cap(s.iframes) < n {
		s.iframes = make([]iframe, n)
	}
	return s.iframes[:0:n]
}

var treePool sync.Pool

// getTree acquires a Tree sized for n block ids with idom, contained and
// the Euler numbers zero-cleared (finish's CSR counting and the idom
// convergence both start from the zero value). children is sized but not
// cleared: finish overwrites every entry.
func getTree(r *ir.Routine, post bool, n int) *Tree {
	t, _ := treePool.Get().(*Tree)
	if t == nil {
		t = &Tree{}
	}
	t.routine, t.post = r, post
	if cap(t.idom) < n {
		t.idom = make([]*ir.Block, n)
	}
	t.idom = t.idom[:n]
	clear(t.idom)
	if cap(t.contained) < n {
		t.contained = make([]bool, n)
	}
	t.contained = t.contained[:n]
	clear(t.contained)
	if cap(t.nums) < 2*n {
		t.nums = make([]int, 2*n)
	}
	t.nums = t.nums[:2*n]
	clear(t.nums)
	t.preNum, t.postNum = t.nums[:n:n], t.nums[n:]
	if cap(t.children) < n {
		t.children = make([][]*ir.Block, n)
	}
	t.children = t.children[:n]
	t.rootBlocks = t.rootBlocks[:0]
	return t
}

// Release returns the tree's storage to a pool for reuse by a later
// construction. The caller must be the tree's sole owner: the tree (and
// any slice obtained from it, e.g. Children) is unusable afterwards.
// Releasing is optional — unreleased trees are collected normally.
func (t *Tree) Release() {
	t.routine = nil
	clear(t.idom)
	clear(t.children)
	clear(t.flat)
	clear(t.rootBlocks)
	clear(t.df)
	clear(t.dfFlat)
	t.df, t.dfFlat = t.df[:0], t.dfFlat[:0]
	treePool.Put(t)
}
