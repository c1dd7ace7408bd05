package ir

import "sync"

// idTables is the id-indexed scratch of Verify, MaterializeSSA and
// ApplySSA, recycled through tablePool so that the Verify calls and the
// SSA materialization each routine meets on the driver path allocate no
// side table. It follows DESIGN §17's rule: release clears the pointer
// tables (instructions, blocks, Verify's id slots) over the prefix handed
// out, so an idle entry pins no routine and a fresh acquisition finds
// them nil-filled; the int32 and case tables are handed out dirty, and
// each user clears what it reads before writing.
type idTables struct {
	ints   []int32
	cases  []int64
	instrs []*Instr
	blocks []*Block
	slots  []idSlot
}

var tablePool sync.Pool

func getTables() *idTables {
	t, _ := tablePool.Get().(*idTables)
	if t == nil {
		t = &idTables{}
	}
	return t
}

// release returns t to the pool; every table handed out is unusable
// afterwards.
func (t *idTables) release() {
	clear(t.instrs)
	clear(t.blocks)
	clear(t.slots)
	t.instrs, t.blocks, t.slots = t.instrs[:0], t.blocks[:0], t.slots[:0]
	tablePool.Put(t)
}

// resize returns s with length n, reusing its backing array when it is
// large enough. The contents are not cleared.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// int32s returns an uninitialized table of n int32s.
func (t *idTables) int32s(n int) []int32 {
	t.ints = resize(t.ints, n)
	return t.ints
}

// instrTable returns a nil-filled table of n instruction pointers. Each
// pointer table may be taken once per acquisition.
func (t *idTables) instrTable(n int) []*Instr {
	t.instrs = resize(t.instrs, n)
	return t.instrs
}

// blockTable returns a nil-filled table of n block pointers.
func (t *idTables) blockTable(n int) []*Block {
	t.blocks = resize(t.blocks, n)
	return t.blocks
}

// slotTable returns a zeroed table of n id slots.
func (t *idTables) slotTable(n int) []idSlot {
	t.slots = resize(t.slots, n)
	return t.slots
}
