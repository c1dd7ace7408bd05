// Package cfg provides control-flow-graph analyses over ir routines:
// reverse post order numbering, RPO back-edge identification, reachability
// and the loop connectedness bound used in the paper's complexity analysis.
package cfg

import (
	"sync"

	"pgvn/internal/ir"
)

// Order holds a reverse-post-order numbering of a routine's blocks.
type Order struct {
	// Blocks lists the blocks reachable from entry in reverse post order;
	// Blocks[0] is the entry block.
	Blocks []*ir.Block
	// Number maps block ID to RPO number. Blocks unreachable from the
	// entry (statically) have number -1.
	Number []int
}

// frame is one DFS stack entry of ReversePostOrder.
type frame struct {
	b    *ir.Block
	next int
}

// rpoScratch is the construction-local state of one ReversePostOrder
// call: the visited set, the DFS stack and the post-order accumulator.
// None of it escapes, so it is pooled; Orders themselves are pooled
// separately via Release.
type rpoScratch struct {
	visited []bool
	stack   []frame
	post    []*ir.Block
}

var (
	rpoScratchPool sync.Pool
	orderPool      sync.Pool
)

// ReversePostOrder computes an RPO numbering of the blocks reachable from
// the routine's entry block. Successors are visited in edge order, so the
// numbering is deterministic.
func ReversePostOrder(r *ir.Routine) *Order {
	n := r.NumBlockIDs()
	o, _ := orderPool.Get().(*Order)
	if o == nil {
		o = &Order{}
	}
	if cap(o.Number) < n {
		o.Number = make([]int, n)
	}
	o.Number = o.Number[:n]
	for i := range o.Number {
		o.Number[i] = -1
	}
	sc, _ := rpoScratchPool.Get().(*rpoScratch)
	if sc == nil {
		sc = &rpoScratch{}
	}
	if cap(sc.visited) < n {
		sc.visited = make([]bool, n)
		sc.stack = make([]frame, n)
		sc.post = make([]*ir.Block, n)
	}
	visited := sc.visited[:n]
	clear(visited)
	// Iterative DFS with an explicit stack to survive deep graphs. Stack
	// depth and post-order length are bounded by the block count, so the
	// appends below never outgrow the pooled capacity.
	stack := sc.stack[:0:n]
	post, np := sc.post[:n], 0
	stack = append(stack, frame{b: r.Entry()})
	visited[r.Entry().ID] = true
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.next < len(f.b.Succs) {
			s := f.b.Succs[f.next].To
			f.next++
			if !visited[s.ID] {
				visited[s.ID] = true
				stack = append(stack, frame{b: s})
			}
			continue
		}
		post[np] = f.b
		np++
		stack = stack[:len(stack)-1]
	}
	if cap(o.Blocks) < np {
		o.Blocks = make([]*ir.Block, np)
	}
	o.Blocks = o.Blocks[:np]
	for i := 0; i < np; i++ {
		k := np - 1 - i
		o.Blocks[k] = post[i]
		o.Number[post[i].ID] = k
	}
	// Drop the block pointers so the pool does not pin the routine.
	clear(post[:np])
	clear(sc.stack[:n])
	rpoScratchPool.Put(sc)
	return o
}

// Release returns the Order's storage to a pool for reuse by a later
// ReversePostOrder call. The caller must be the sole owner: the Order and
// its slices are unusable afterwards. Releasing is optional — unreleased
// Orders are collected normally.
func (o *Order) Release() {
	clear(o.Blocks) // do not pin the routine from the pool
	orderPool.Put(o)
}

// RPO returns the RPO number of b, or -1 if b is statically unreachable.
func (o *Order) RPO(b *ir.Block) int { return o.Number[b.ID] }

// Reachable reports whether b is reachable from the entry block.
func (o *Order) Reachable(b *ir.Block) bool { return o.Number[b.ID] >= 0 }

// IsBackEdge reports whether e is an RPO back edge: its destination does
// not follow its origin in reverse post order. This is the paper's §2.5
// approximation of loop back edges. Edges touching statically unreachable
// blocks are not back edges.
func (o *Order) IsBackEdge(e *ir.Edge) bool {
	f, t := o.Number[e.From.ID], o.Number[e.To.ID]
	return f >= 0 && t >= 0 && t <= f
}

// BackEdges returns the routine's RPO back edges (the paper's BACKWARD set)
// in deterministic order.
func (o *Order) BackEdges() []*ir.Edge {
	var edges []*ir.Edge
	for _, b := range o.Blocks {
		for _, e := range b.Succs {
			if o.IsBackEdge(e) {
				edges = append(edges, e)
			}
		}
	}
	return edges
}

// HasLoops reports whether the routine has any RPO back edge.
func (o *Order) HasLoops() bool {
	for _, b := range o.Blocks {
		for _, e := range b.Succs {
			if o.IsBackEdge(e) {
				return true
			}
		}
	}
	return false
}

// LoopConnectedness returns the loop connectedness of the CFG: the maximum
// number of back edges on any acyclic path, the C in the paper's
// O(C·E²·(E+I)) bound. For reducible CFGs — the only kind our front ends
// produce — this equals the maximum natural-loop nesting depth, which is
// what this function computes: for every RPO back edge n→h the loop body is
// {h} plus every block that reaches n without passing through h, and the
// connectedness is the maximum number of such bodies any block belongs to.
func (o *Order) LoopConnectedness() int {
	depth := make(map[*ir.Block]int)
	for _, b := range o.Blocks {
		for _, e := range b.Succs {
			if !o.IsBackEdge(e) {
				continue
			}
			for _, member := range NaturalLoop(e) {
				depth[member]++
			}
		}
	}
	max := 0
	for _, d := range depth {
		if d > max {
			max = d
		}
	}
	return max
}

// NaturalLoop returns the body of the natural loop of back edge e = n→h:
// h together with all blocks that can reach n without passing through h.
// The result is in deterministic (discovery) order, starting with h.
func NaturalLoop(e *ir.Edge) []*ir.Block {
	h, n := e.To, e.From
	body := []*ir.Block{h}
	seen := map[*ir.Block]bool{h: true}
	stack := []*ir.Block{}
	if !seen[n] {
		seen[n] = true
		body = append(body, n)
		stack = append(stack, n)
	}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, pe := range b.Preds {
			p := pe.From
			if !seen[p] {
				seen[p] = true
				body = append(body, p)
				stack = append(stack, p)
			}
		}
	}
	return body
}
