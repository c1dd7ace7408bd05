package ir

import "pgvn/internal/slab"

// Scratch is ir's reusable memory: the id tables of Verify,
// MaterializeSSA and ApplySSA, the index storage of FreezeArena, and the
// storage MaterializeSSA carves a routine from. The zero Scratch is
// ready to use; a nil *Scratch makes each call allocate its own. One
// goroutine uses a Scratch at a time. Every table hands out zeroed
// prefixes (slab.Table), and Reset zeroes what the last routine was
// handed, so an idle Scratch holds capacity, never a pointer into a
// finished routine (DESIGN §17).
type Scratch struct {
	ints   slab.Table[int32]
	instrs slab.Table[*Instr]
	blocks slab.Table[*Block]
	slots  slab.Table[idSlot]
	cases  slab.Table[int64]
	pool   slab.Table[uint32] // FreezeArena's index storage
	op     slab.Table[Op]     // FreezeArena's opcode table
	// store is the storage the next MaterializeSSA carves from. The
	// routine it builds holds it until Release hands it back; a routine
	// never released takes it along to the collector.
	store *ssaStore
}

// orNew returns s, or a fresh Scratch when s is nil.
func (s *Scratch) orNew() *Scratch {
	if s == nil {
		return new(Scratch)
	}
	return s
}

// Reset zeroes every table the last routine was handed and keeps the
// capacity. A routine materialized from s is not affected: its storage
// is cleared by its own Release.
func (s *Scratch) Reset() {
	s.ints.Reset()
	s.instrs.Reset()
	s.blocks.Reset()
	s.slots.Reset()
	s.cases.Reset()
	s.pool.Reset()
	s.op.Reset()
}
