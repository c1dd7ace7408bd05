// Package slab records the chunks a bump allocator carves from, so that
// the owner of everything carved can hand the chunks back for reuse once
// it is finished with them (DESIGN §17: a chunk returns to a pool only
// whole, only cleared, and only after its owner called Release).
package slab

// Chunks is one bump allocator's chunk set: the chunks its current owner
// carved, in carve order, followed by spare chunks an earlier owner left,
// which are zero. A nil *Chunks records nothing: its chunks are plain
// allocations that die with whatever was carved from them.
type Chunks[T any] struct {
	// list[:used] are the chunks handed to the current owner, list[used:]
	// the spares. Each entry's length is what was last handed out of
	// it, its capacity the whole chunk; past the length it is zero.
	list [][]T
	used int
}

// Next returns a zeroed chunk of at least need elements: the next spare
// chunk, cut to n elements when it is longer, when it holds need; else a
// new chunk of n elements (n ≥ need), which the set keeps from then on.
func (c *Chunks[T]) Next(n, need int) []T {
	if c == nil {
		return make([]T, n)
	}
	if c.used == len(c.list) || cap(c.list[c.used]) < need {
		c.list = append(c.list, make([]T, n))
		last := len(c.list) - 1
		c.list[c.used], c.list[last] = c.list[last], c.list[c.used]
	}
	s := c.list[c.used]
	s = s[:min(n, cap(s))]
	c.list[c.used] = s
	c.used++
	return s[:len(s):len(s)]
}

// Clear zeroes what the owner was handed of every chunk, which leaves
// each chunk zero whole, and makes all chunks spare again: the set then
// holds capacity and no pointer its last owner stored.
func (c *Chunks[T]) Clear() {
	for _, s := range c.list[:c.used] {
		clear(s)
	}
	c.used = 0
}

// Len returns the number of chunks in the set, carved and spare.
func (c *Chunks[T]) Len() int { return len(c.list) }

// Each calls f on every chunk in the set, carved and spare, whole.
func (c *Chunks[T]) Each(f func([]T)) {
	for _, s := range c.list {
		f(s[:cap(s)])
	}
}
