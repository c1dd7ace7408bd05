package core

import (
	"sync"

	"pgvn/internal/expr"
	"pgvn/internal/ir"
)

// ClassID is a dense congruence-class identifier in a Partition. IDs run
// from 0 to NumClasses()-1 in first-encounter order over the routine's
// blocks and instructions, so they are deterministic for a given routine
// and analysis outcome. NoClass marks undetermined values.
type ClassID int

// NoClass is the ClassID of values the analysis left undetermined
// (unreachable values, or instructions created after the analysis ran).
const NoClass ClassID = -1

// Partition is a stable, read-only view of the congruence partition:
// dense class ids, per-class leader and canonical defining expression,
// and class members (globally and per block). It exists so passes
// outside internal/core — notably internal/opt/pre — can consume the
// partition without reaching into analysis internals.
//
// A Partition is a snapshot: it indexes the instructions that existed
// when Build ran. Instructions created later map to NoClass, and members
// deleted later are still listed (callers that mutate the routine should
// filter with ir.Instr.Block). Methods are safe for concurrent readers.
type Partition struct {
	numInstrIDs int
	classOf     []ClassID // by instruction ID; NoClass when undetermined
	classes     []partClass
	arena       []*ir.Instr // backing storage the member lists are carved from
	routine     *ir.Routine
	inOnce      sync.Once // guards the lazy per-block member index
}

// partScratch holds Partition-construction state that never escapes the
// build: the instruction lookup and the first-encounter bookkeeping.
type partScratch struct {
	byID   []*ir.Instr
	uniq   []*class
	counts []int
}

var (
	partitionPool   sync.Pool
	partScratchPool sync.Pool
)

// Release returns the Partition's storage to a pool for reuse by a later
// Partition call. The caller must be the sole owner: the Partition and
// every slice obtained from it (Members, MembersIn) is unusable
// afterwards. Releasing is optional — unreleased Partitions are
// collected normally.
func (p *Partition) Release() {
	p.routine = nil
	clear(p.arena) // do not pin the routine's instructions from the pool
	clear(p.classes)
	partitionPool.Put(p)
}

type partClass struct {
	leader    *ir.Instr
	expr      *expr.Expr // canonical defining expression (may be nil)
	members   []*ir.Instr
	constVal  int64
	isConst   bool
	membersIn map[int][]*ir.Instr // by block ID; nil until MembersIn is first called
}

// Partition builds the dense read-only view of r's congruence partition.
// Class ids are assigned in first-encounter order over blocks and
// instructions, so two calls on the same Result yield identical ids.
// The build stamps scratch state onto the analysis classes, so Partition
// must not be called concurrently on the same Result (built Partitions
// are themselves safe for concurrent readers).
func (r *Result) Partition() *Partition {
	p, _ := partitionPool.Get().(*Partition)
	if p == nil {
		p = &Partition{}
	}
	p.numInstrIDs = r.Routine.NumInstrIDs()
	p.routine = r.Routine
	p.inOnce = sync.Once{}
	if cap(p.classOf) < p.numInstrIDs {
		p.classOf = make([]ClassID, p.numInstrIDs)
	}
	p.classOf = p.classOf[:p.numInstrIDs]
	sc, _ := partScratchPool.Get().(*partScratch)
	if sc == nil {
		sc = &partScratch{}
	}
	if cap(sc.byID) < p.numInstrIDs {
		sc.byID = make([]*ir.Instr, p.numInstrIDs)
	}
	byID := sc.byID[:p.numInstrIDs] // nil: cleared before every Put
	for k := range p.classOf {
		p.classOf[k] = NoClass
	}
	// Pass 1: assign dense ids in first-encounter order and count
	// members. Dense ids are stamped straight onto the analysis class
	// structs (class.dense, id+1) instead of keyed through a map — the
	// map dominated driver batch profiles. The stamps are reset below,
	// so Partition must not run concurrently on one Result.
	uniq := sc.uniq[:0]
	counts := sc.counts[:0]
	for _, b := range r.Routine.Blocks {
		for _, i := range b.Instrs {
			if !i.HasValue() || i.ID >= p.numInstrIDs {
				continue
			}
			c := r.class(i)
			if c == nil {
				continue
			}
			if c.dense == 0 {
				uniq = append(uniq, c)
				c.dense = len(uniq)
				counts = append(counts, 0)
			}
			id := ClassID(c.dense - 1)
			p.classOf[i.ID] = id
			byID[i.ID] = i
			counts[id]++
		}
	}
	if cap(p.classes) < len(uniq) {
		p.classes = make([]partClass, len(uniq))
	}
	p.classes = p.classes[:len(uniq)] // zero: Release clears before the Put
	for k, c := range uniq {
		c.dense = 0
		pc := &p.classes[k]
		pc.leader = r.byID[c.leaderVal]
		pc.expr = c.expr
		if c.leaderConst != nil {
			pc.constVal, pc.isConst = c.leaderConst.C, true
		}
	}
	// Pass 2: carve the member lists out of one arena and fill by
	// ascending instruction ID, so every list matches
	// Result.ClassMembers order without a per-class sort.
	total := 0
	for _, n := range counts {
		total += n
	}
	if cap(p.arena) < total {
		p.arena = make([]*ir.Instr, total)
	}
	p.arena = p.arena[:total]
	arena := p.arena
	off := 0
	for k := range p.classes {
		p.classes[k].members = arena[off : off : off+counts[k]]
		off += counts[k]
	}
	for id, i := range byID {
		if i == nil {
			continue
		}
		c := p.classOf[id]
		p.classes[c].members = append(p.classes[c].members, i)
	}
	clear(byID) // drop the instruction and class pointers so the pool
	clear(uniq) // does not pin them
	sc.uniq = uniq[:0]
	sc.counts = counts[:0]
	partScratchPool.Put(sc)
	return p
}

// NumClasses returns the number of congruence classes with at least one
// determined member.
func (p *Partition) NumClasses() int { return len(p.classes) }

// ClassOf returns v's dense class id, or NoClass when the analysis left v
// undetermined or v was created after the snapshot.
func (p *Partition) ClassOf(v *ir.Instr) ClassID {
	if v == nil || v.ID >= len(p.classOf) {
		return NoClass
	}
	return p.classOf[v.ID]
}

// Leader returns the class's representative member (the lowest-ranking
// member elected by the analysis).
func (p *Partition) Leader(id ClassID) *ir.Instr { return p.classes[id].leader }

// LeaderExpr returns the class's canonical defining expression, or nil
// when the analysis recorded none.
func (p *Partition) LeaderExpr(id ClassID) *expr.Expr { return p.classes[id].expr }

// ConstValue reports whether the class is congruent to a compile-time
// constant, and if so which.
func (p *Partition) ConstValue(id ClassID) (int64, bool) {
	pc := &p.classes[id]
	return pc.constVal, pc.isConst
}

// Members returns the class's members sorted by instruction ID. The
// returned slice is shared — callers must not modify it.
func (p *Partition) Members(id ClassID) []*ir.Instr { return p.classes[id].members }

// MembersIn returns the class's members located in block b, in block
// order. The returned slice is shared — callers must not modify it.
// The per-block index is built lazily on first call (the hot consumers
// — the PRE pass — only need Members, and a map per class was a
// measurable share of driver batch time); call it before mutating the
// routine, or the index will reflect the mutated block contents.
func (p *Partition) MembersIn(id ClassID, b *ir.Block) []*ir.Instr {
	p.inOnce.Do(p.buildMembersIn)
	return p.classes[id].membersIn[b.ID]
}

// buildMembersIn populates the per-block member index with the same
// traversal Partition used, so slices come out in block order.
func (p *Partition) buildMembersIn() {
	for _, b := range p.routine.Blocks {
		for _, i := range b.Instrs {
			id := p.ClassOf(i)
			if id == NoClass {
				continue
			}
			pc := &p.classes[id]
			if pc.membersIn == nil {
				pc.membersIn = make(map[int][]*ir.Instr)
			}
			pc.membersIn[b.ID] = append(pc.membersIn[b.ID], i)
		}
	}
}
