// Package cfg provides control-flow-graph analyses over ir routines:
// reverse post order numbering, RPO back-edge identification and
// reachability.
package cfg

import (
	"pgvn/internal/ir"
	"pgvn/internal/slab"
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

// Scratch is the reusable memory of ReversePostOrder: the Order it
// returns and the tables behind it, and the visited set, DFS stack and
// post-order of one construction. The zero Scratch is ready to use; a
// nil *Scratch makes each call allocate its own. Reset zeroes what the
// last routine was handed and keeps the capacity (DESIGN §17).
type Scratch struct {
	order   Order
	blocks  slab.Table[*ir.Block]
	number  slab.Table[int]
	visited slab.Table[bool]
	stack   slab.Table[frame]
	post    slab.Table[*ir.Block]
}

// Reset zeroes every table the last routine was handed; an Order built
// in s is unusable afterwards.
func (s *Scratch) Reset() {
	s.order = Order{}
	s.blocks.Reset()
	s.number.Reset()
	s.visited.Reset()
	s.stack.Reset()
	s.post.Reset()
}

// ReversePostOrder computes an RPO numbering of the blocks reachable from
// the routine's entry block. Successors are visited in edge order, so the
// numbering is deterministic.
func ReversePostOrder(r *ir.Routine) *Order { return ReversePostOrderIn(nil, r) }

// ReversePostOrderIn is ReversePostOrder building in s (nil allocates).
// The Order is valid until s builds another or is reset.
func ReversePostOrderIn(s *Scratch, r *ir.Routine) *Order {
	if s == nil {
		s = new(Scratch)
	}
	n := r.NumBlockIDs()
	o := &s.order
	o.Number = s.number.Take(n)
	for i := range o.Number {
		o.Number[i] = -1
	}
	visited := s.visited.Take(n)
	// Iterative DFS with an explicit stack to survive deep graphs. Stack
	// depth and post-order length are bounded by the block count, so the
	// appends below never outgrow the taken capacity.
	stack := s.stack.Take(n)[:0]
	post, np := s.post.Take(n), 0
	stack = append(stack, frame{b: r.Entry()})
	visited[r.Entry().ID] = true
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.next < len(f.b.Succs) {
			to := f.b.Succs[f.next].To
			f.next++
			if !visited[to.ID] {
				visited[to.ID] = true
				stack = append(stack, frame{b: to})
			}
			continue
		}
		post[np] = f.b
		np++
		stack = stack[:len(stack)-1]
	}
	o.Blocks = s.blocks.Take(np)
	for i := 0; i < np; i++ {
		k := np - 1 - i
		o.Blocks[k] = post[i]
		o.Number[post[i].ID] = k
	}
	return o
}

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
