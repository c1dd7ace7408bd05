package core

import (
	"pgvn/internal/expr"
	"pgvn/internal/ir"
	"pgvn/internal/slab"
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
// dense class ids, per-class canonical defining expression and constant,
// and class members. It exists so passes outside internal/core — notably
// internal/opt/pre — can consume the partition without reaching into
// analysis internals.
//
// A Partition is a snapshot: it indexes the instructions that existed
// when Build ran. Instructions created later map to NoClass, and members
// deleted later are still listed (callers that mutate the routine should
// filter with ir.Instr.Block). Methods are safe for concurrent readers.
type Partition struct {
	numInstrIDs int
	classOf     []ClassID // by instruction ID; NoClass when undetermined
	classes     []partClass
}

// partTables is the storage of one Partition and the first-encounter
// bookkeeping of its build; a Workspace keeps one.
type partTables struct {
	part    Partition
	classOf slab.Table[ClassID]
	classes slab.Table[partClass]
	members slab.Table[*ir.Instr] // the member lists are carved from it
	byID    slab.Table[*ir.Instr]
	uniq    slab.Table[*class]
	counts  slab.Table[int]
}

// reset zeroes every table the last Partition was handed.
func (t *partTables) reset() {
	t.part = Partition{}
	t.classOf.Reset()
	t.classes.Reset()
	t.members.Reset()
	t.byID.Reset()
	t.uniq.Reset()
	t.counts.Reset()
}

type partClass struct {
	expr     *expr.Expr // canonical defining expression (may be nil)
	members  []*ir.Instr
	constVal int64
	isConst  bool
}

// Partition builds the dense read-only view of r's congruence partition.
// Class ids are assigned in first-encounter order over blocks and
// instructions, so two calls on the same Result yield identical ids.
// For a RunIn Result the Partition is built in the workspace and is
// valid until the next Partition of that workspace or its reset. The
// build stamps scratch state onto the analysis classes, so Partition
// must not be called concurrently on the same Result (built Partitions
// are themselves safe for concurrent readers).
func (r *Result) Partition() *Partition {
	t := &partTables{}
	if r.ws != nil {
		t = &r.ws.part
	}
	n := r.Routine.NumInstrIDs()
	p := &t.part
	*p = Partition{numInstrIDs: n, classOf: t.classOf.Take(n)}
	byID := t.byID.Take(n)
	for k := range p.classOf {
		p.classOf[k] = NoClass
	}
	// Pass 1: assign dense ids in first-encounter order and count
	// members. Dense ids are stamped straight onto the analysis class
	// structs (class.dense, id+1) instead of keyed through a map — the
	// map dominated driver batch profiles. The stamps are reset below,
	// so Partition must not run concurrently on one Result.
	uniq := t.uniq.Take(n)[:0]
	counts := t.counts.Take(n)[:0]
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
	p.classes = t.classes.Take(len(uniq))
	for k, c := range uniq {
		c.dense = 0
		pc := &p.classes[k]
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
	arena := t.members.Take(total)
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
