// Package ssa converts routines from the non-SSA variable form produced by
// the parser and the workload generator into SSA form, following Cytron,
// Ferrante, Rosen, Wegman and Zadeck: φ-functions are placed on iterated
// dominance frontiers of definition sites and uses are renamed by a
// dominator-tree walk.
//
// Three φ-placement strategies are offered. Minimal places a φ at every
// iterated-dominance-frontier block of every definition. SemiPruned
// restricts placement to variables live across some block boundary.
// Pruned additionally requires the variable to be live-in at the φ's block
// (Choi, Cytron and Ferrante's sparse form — the paper's §3 notes pruned
// SSA can reduce the effectiveness of global value numbering, which our
// ablation benchmark measures).
//
// Construction plans first and materializes second: the whole algorithm
// runs read-only over the input and yields an ir.SSAPlan, which Build
// applies in place and BuildFrom writes into a new routine holding only
// the instructions that survive.
package ssa

import (
	"fmt"
	"strconv"

	"pgvn/internal/dom"
	"pgvn/internal/ir"
)

// Placement selects the φ-placement strategy.
type Placement int

// Placement strategies.
const (
	// SemiPruned places φs only for variables that live across a block
	// boundary. It is the default.
	SemiPruned Placement = iota
	// Minimal places φs at all iterated dominance frontiers.
	Minimal
	// Pruned places φs only where the variable is live-in.
	Pruned
)

// Scratch is ssa's reusable memory: ir's tables (Verify's, the
// materializers' and the storage a built routine is carved from), dom's
// trees and the builder that plans a construction. The zero Scratch is
// ready to use; a nil *Scratch makes each call allocate its own. Reset
// zeroes what the last routine was handed and keeps the capacity, so an
// idle Scratch pins nothing of a finished routine (DESIGN §17).
type Scratch struct {
	IR  ir.Scratch
	Dom dom.Scratch
	b   builder
}

// Reset zeroes everything the last routine was handed. A routine built
// in s is not affected: its storage is cleared by its own Release.
func (s *Scratch) Reset() {
	s.IR.Reset()
	s.Dom.Reset()
	s.b.reset()
}

// Build converts r to SSA form in place: VarRead/VarWrite
// pseudo-instructions are replaced by direct SSA value references and
// φ-instructions. Reads of never-written variables resolve to a constant 0
// materialized in the entry block. Build returns an error if the routine
// is structurally invalid. Blocks, edges and surviving instructions keep
// their identity; BuildFrom is the copying form. Its tables come from a
// Scratch that Borrow lends for the call, when set.
func Build(r *ir.Routine, placement Placement) error {
	if Borrow == nil {
		return BuildIn(nil, r, placement)
	}
	s, done := Borrow()
	defer done()
	return BuildIn(s, r, placement)
}

// Borrow, when set, lends Build a Scratch and returns the func that
// takes it back. Package core sets it at start-up to borrow from its
// workspace pool, so a library caller's SSA construction recycles its
// tables through the one pool the driver's workers use.
var Borrow func() (*Scratch, func())

// BuildIn is Build with its tables taken from s (nil allocates them).
func BuildIn(s *Scratch, r *ir.Routine, placement Placement) error {
	if s == nil {
		s = new(Scratch)
	}
	b, err := s.plan(r, placement)
	if err != nil || b == nil {
		return err
	}
	r.ApplySSA(&b.plan, &s.IR)
	if err := r.VerifyIn(&s.IR); err != nil {
		return fmt.Errorf("ssa: post-build verify: %w", err)
	}
	return nil
}

// BuildFrom returns the SSA form of src as a new routine, allocating only
// what survives construction: the pseudo-instructions are never copied.
// src is not modified and shares no instruction, block, edge or backing
// array with the result, which equals what Build makes of a clone of
// src — ids, names, block and instruction order, NumInstrIDs and use
// lists.
func BuildFrom(src *ir.Routine, placement Placement) (*ir.Routine, error) {
	return BuildFromIn(nil, src, placement)
}

// BuildFromIn is BuildFrom with its tables taken from s (nil allocates
// them). The result is carved from storage s lends it until its Release
// (ir.Routine.Release).
func BuildFromIn(s *Scratch, src *ir.Routine, placement Placement) (*ir.Routine, error) {
	if s == nil {
		s = new(Scratch)
	}
	b, err := s.plan(src, placement)
	if err != nil {
		return nil, err
	}
	if b == nil {
		return src.Clone(), nil
	}
	r := src.MaterializeSSA(&b.plan, &s.IR)
	if err := r.VerifyIn(&s.IR); err != nil {
		return nil, fmt.Errorf("ssa: post-build verify: %w", err)
	}
	return r, nil
}

// renamed marks, in varOf, a non-variable value that already took a
// variable-derived name; other non-variable instructions read -1.
const renamed = -2

// builder is the working state of one SSA construction, the plan it
// hands to the materializer included. A plan starts with reset, which
// clears every table holding a string or a block pointer (the variable
// map, names and the plan's PhiBlock, PhiName and Renames) over what the
// last plan was handed; the stamp and bit tables whose zero value
// matters are cleared where they are sized. Every other table is written
// before it is read.
type builder struct {
	r    *ir.Routine
	tree *dom.Tree
	plan ir.SSAPlan
	base int // the input's NumInstrIDs

	vars  map[string]int32 // name -> dense index
	names []string
	// varOf is the variable of each variable instruction by id, -1 or
	// renamed for other instructions, and the variable of placed φ k at
	// base+k.
	varOf     []int32
	defBlocks [][]int32 // by var: ids of the blocks with defs, in block order
	lastDef   []int32   // by var: 1 + index of the last block recorded
	live      liveness

	// placed and inWork are per-block stamps holding 1 + the variable
	// last marked, so one pair of tables serves every variable.
	placed, inWork []int32
	work           []int32 // block ids
	// The placed φs of each block, as a list threaded through phiNext
	// from phiHead (by block id; -1 ends a list), and each φ's first
	// argument slot in PhiArgs, all carved from ints.
	ints                       []int32
	phiHead, phiNext, argStart []int32

	// Renaming keeps one definition stack per variable, threaded
	// through a shared push log: top[v] indexes v's latest push, and
	// each push records the one it shadows.
	top                        []int32
	pushVar, pushVal, pushPrev []int32
	undefID                    int32
	cyclic                     bool

	// Every new name (placed φs first, then renames in walk order) is
	// written into nameBuf; nameEnds records where each ends, and the
	// names become substrings of one string copied out of the buffer.
	nameBuf  []byte
	nameEnds []int32
}

// reset drops everything the last plan was handed: the routine, its
// tree, the variable map and names, and the plan.
func (s *builder) reset() {
	s.r, s.tree, s.cyclic = nil, nil, false
	clear(s.vars)
	clear(s.names)
	p := &s.plan
	clear(p.PhiBlock)
	clear(p.PhiName)
	clear(p.Renames)
	s.names = s.names[:0]
	s.plan = ir.SSAPlan{PhiBlock: p.PhiBlock[:0], PhiName: p.PhiName[:0],
		PhiArgs: p.PhiArgs[:0], Read: p.Read[:0], Renames: p.Renames[:0]}
}

// resize returns t with length n, reusing its backing array when it is
// large enough. The contents are not cleared.
func resize[T any](t []T, n int) []T {
	if cap(t) < n {
		return make([]T, n)
	}
	return t[:n]
}

// fill returns t resized to n with every entry set to v.
func fill[T any](t []T, n int, v T) []T {
	t = resize(t, n)
	for k := range t {
		t[k] = v
	}
	return t
}

// plan computes the SSA construction of r without modifying it: the
// dominator tree, liveness, φ placement on iterated dominance frontiers
// and the renaming walk run read-only and record their outcome in the
// builder's plan, which stays valid until the next plan or Reset. It
// returns nil when r has no variables (already SSA).
func (sc *Scratch) plan(r *ir.Routine, placement Placement) (*builder, error) {
	if err := r.VerifyIn(&sc.IR); err != nil {
		return nil, fmt.Errorf("ssa: pre-build verify: %w", err)
	}
	s := &sc.b
	s.reset()
	s.r = r
	s.collect()
	if len(s.names) == 0 {
		return nil, nil // already SSA (or no variables at all)
	}
	s.tree = dom.NewIn(&sc.Dom, r)
	s.live.compute(r, s.varOf, len(s.names))
	s.place(placement)
	s.rename()
	if err := s.resolveAll(); err != nil {
		return nil, err
	}
	return s, nil
}

// collect gathers the variables and their definition sites, resolving
// each variable instruction's name once into varOf. Verify just proved
// the ids unique and in range. Parameters define their names at the
// entry block.
func (s *builder) collect() {
	s.base = s.r.NumInstrIDs()
	if s.vars == nil {
		s.vars = map[string]int32{}
	}
	s.varOf = resize(s.varOf, s.base)
	s.defBlocks, s.lastDef = s.defBlocks[:0], s.lastDef[:0]
	for k, b := range s.r.Blocks {
		for _, i := range b.Instrs {
			s.varOf[i.ID] = -1
			switch i.Op {
			case ir.OpVarWrite, ir.OpVarRead, ir.OpParam:
			default:
				continue
			}
			v, ok := s.vars[i.Name]
			if !ok {
				v = int32(len(s.names))
				s.vars[i.Name] = v
				s.names = append(s.names, i.Name)
				s.lastDef = append(s.lastDef, 0)
				// Reuse the per-variable list kept past the end.
				if n := len(s.defBlocks); n < cap(s.defBlocks) {
					s.defBlocks = s.defBlocks[:n+1]
					s.defBlocks[n] = s.defBlocks[n][:0]
				} else {
					s.defBlocks = append(s.defBlocks, nil)
				}
			}
			s.varOf[i.ID] = v
			if i.Op != ir.OpVarRead && s.lastDef[v] != int32(k+1) {
				s.lastDef[v] = int32(k + 1)
				s.defBlocks[v] = append(s.defBlocks[v], int32(b.ID))
			}
		}
	}
}

// newName appends the name v_id to the name buffer.
func (s *builder) newName(v string, id int) {
	s.nameBuf = append(s.nameBuf, v...)
	s.nameBuf = append(s.nameBuf, '_')
	s.nameBuf = strconv.AppendInt(s.nameBuf, int64(id), 10)
	s.nameEnds = append(s.nameEnds, int32(len(s.nameBuf)))
}

// place runs φ placement on iterated dominance frontiers. The k'th φ
// placed gets id base+k, and its variable is appended to varOf, keeping
// it indexed by id. It then threads the placed φs into per-block lists
// and lays out their argument slots, unfilled slots reading -1.
func (s *builder) place(placement Placement) {
	p := &s.plan
	s.nameBuf, s.nameEnds = s.nameBuf[:0], s.nameEnds[:0]
	df := s.tree.Frontier()
	nb := s.r.NumBlockIDs()
	s.placed = resize(s.placed, nb)
	s.inWork = resize(s.inWork, nb)
	clear(s.placed)
	clear(s.inWork)
	for v := range s.names {
		if placement != Minimal && !s.live.global[v] {
			continue
		}
		stamp := int32(v + 1)
		s.work = append(s.work[:0], s.defBlocks[v]...)
		for _, id := range s.work {
			s.inWork[id] = stamp
		}
		for len(s.work) > 0 {
			id := s.work[len(s.work)-1]
			s.work = s.work[:len(s.work)-1]
			for _, y := range df[id] {
				if s.placed[y.ID] == stamp {
					continue
				}
				if placement == Pruned && !s.live.liveIn(y, v) {
					continue
				}
				s.placed[y.ID] = stamp
				p.PhiBlock = append(p.PhiBlock, y)
				s.newName(s.names[v], len(s.varOf))
				s.varOf = append(s.varOf, int32(v))
				if s.inWork[y.ID] != stamp {
					s.inWork[y.ID] = stamp
					s.work = append(s.work, int32(y.ID))
				}
			}
		}
	}

	nphi := len(p.PhiBlock)
	s.ints = resize(s.ints, nb+2*nphi)
	s.phiHead, s.phiNext, s.argStart = s.ints[:nb], s.ints[nb:nb+nphi], s.ints[nb+nphi:]
	for k := range s.phiHead {
		s.phiHead[k] = -1
	}
	nargs := 0
	for k, b := range p.PhiBlock {
		s.phiNext[k] = s.phiHead[b.ID]
		s.phiHead[b.ID] = int32(k)
		s.argStart[k] = int32(nargs)
		nargs += len(b.Preds)
	}
	p.PhiArgs = fill(p.PhiArgs, nargs, -1)
	p.Read = fill(p.Read, s.base, -1)
}

// rename runs the renaming walk over the dominator tree. Definitions are
// value ids; a VarRead's definition is recorded in the plan's Read as it
// is reached. The dominator tree is dropped afterwards.
func (s *builder) rename() {
	s.undefID = int32(s.base + len(s.plan.PhiBlock))
	s.top = fill(s.top, len(s.names), -1)
	s.pushVar, s.pushVal, s.pushPrev = s.pushVar[:0], s.pushVal[:0], s.pushPrev[:0]
	s.walk(s.r.Entry())

	// Reads in statically unreachable blocks (the walk never visits
	// them) get the constant 0 — GVN will prove them unreachable anyway.
	for _, b := range s.r.Blocks {
		if s.tree.Contains(b) {
			continue
		}
		for _, i := range b.Instrs {
			if i.Op == ir.OpVarRead {
				s.plan.Read[i.ID] = s.currentDef(s.varOf[i.ID])
			}
		}
	}
	s.tree = nil
}

func (s *builder) push(v, def int32) {
	s.pushVar = append(s.pushVar, v)
	s.pushVal = append(s.pushVal, def)
	s.pushPrev = append(s.pushPrev, s.top[v])
	s.top[v] = int32(len(s.pushVal) - 1)
}

func (s *builder) currentDef(v int32) int32 {
	if t := s.top[v]; t >= 0 {
		return s.pushVal[t]
	}
	s.plan.Undef = true
	return s.undefID
}

// resolve follows reads already reached to the value they read. A chain
// longer than the id space can only be a cycle of reads, which a routine
// whose uses are dominated by their definitions never has.
func (s *builder) resolve(id int32) int32 {
	read := s.plan.Read
	for n := 0; int(id) < s.base && read[id] >= 0; n++ {
		if n > s.base {
			s.cyclic = true
			return id
		}
		id = read[id]
	}
	return id
}

// walk renames block b and its dominator-tree subtree, popping back on
// exit to the push-log mark it took on entry.
func (s *builder) walk(b *ir.Block) {
	p := &s.plan
	base := int32(s.base)
	mark := len(s.pushVal)
	for k := s.phiHead[b.ID]; k >= 0; k = s.phiNext[k] {
		s.push(s.varOf[base+k], base+k)
	}
	for _, i := range b.Instrs {
		switch i.Op {
		case ir.OpParam:
			s.push(s.varOf[i.ID], int32(i.ID))
		case ir.OpVarRead:
			p.Read[i.ID] = s.currentDef(s.varOf[i.ID])
		case ir.OpVarWrite:
			// A read argument resolves to a definition that is already
			// named; anything else is its own definition and takes the
			// variable's name once.
			a := i.Args[0]
			if a.Op != ir.OpVarRead && a.Name == "" && s.varOf[a.ID] != renamed {
				s.varOf[a.ID] = renamed
				p.Renames = append(p.Renames, ir.SSARename{ID: int32(a.ID)})
				s.newName(i.Name, a.ID)
			}
			s.push(s.varOf[i.ID], s.resolve(int32(a.ID)))
		}
	}
	for _, e := range b.Succs {
		for k := s.phiHead[e.To.ID]; k >= 0; k = s.phiNext[k] {
			p.PhiArgs[s.argStart[k]+int32(e.InIndex())] = s.currentDef(s.varOf[base+k])
		}
	}
	for _, c := range s.tree.Children(b) {
		s.walk(c)
	}
	for t := len(s.pushVal) - 1; t >= mark; t-- {
		s.top[s.pushVar[t]] = s.pushPrev[t]
	}
	s.pushVar, s.pushVal, s.pushPrev = s.pushVar[:mark], s.pushVal[:mark], s.pushPrev[:mark]
}

// resolveAll resolves every read and φ argument to a value that survives
// construction — φ slots on unreachable predecessors get the constant 0
// — and cuts the new names from one string.
func (s *builder) resolveAll() error {
	p := &s.plan
	for k, v := range p.PhiArgs {
		if v < 0 {
			p.Undef = true
			p.PhiArgs[k] = s.undefID
		} else {
			p.PhiArgs[k] = s.resolve(v)
		}
	}
	for k, v := range p.Read {
		if v >= 0 {
			p.Read[k] = s.resolve(v)
		}
	}
	if s.cyclic {
		return fmt.Errorf("ssa: %s: variable reads form a cycle", s.r.Name)
	}
	nphi := len(p.PhiBlock)
	all := string(s.nameBuf)
	start := int32(0)
	p.PhiName = resize(p.PhiName, nphi)
	for k, end := range s.nameEnds {
		if k < nphi {
			p.PhiName[k] = all[start:end]
		} else {
			p.Renames[k-nphi].Name = all[start:end]
		}
		start = end
	}
	return nil
}
