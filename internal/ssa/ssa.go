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

// Build converts r to SSA form in place: VarRead/VarWrite
// pseudo-instructions are replaced by direct SSA value references and
// φ-instructions. Reads of never-written variables resolve to a constant 0
// materialized in the entry block. Build returns an error if the routine
// is structurally invalid. Blocks, edges and surviving instructions keep
// their identity; BuildFrom is the copying form.
func Build(r *ir.Routine, placement Placement) error {
	p, err := plan(r, placement)
	if err != nil || p == nil {
		return err
	}
	r.ApplySSA(p)
	if err := r.Verify(); err != nil {
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
	p, err := plan(src, placement)
	if err != nil {
		return nil, err
	}
	if p == nil {
		return src.Clone(), nil
	}
	r := src.MaterializeSSA(p)
	if err := r.Verify(); err != nil {
		return nil, fmt.Errorf("ssa: post-build verify: %w", err)
	}
	return r, nil
}

// renamed marks, in varOf, a non-variable value that already took a
// variable-derived name; other non-variable instructions read -1.
const renamed = -2

// plan computes the SSA construction of r without modifying it: the
// dominator tree, liveness, φ placement on iterated dominance frontiers
// and the renaming walk run read-only and record their outcome in an
// ir.SSAPlan. It returns nil when r has no variables (already SSA).
func plan(r *ir.Routine, placement Placement) (*ir.SSAPlan, error) {
	if err := r.Verify(); err != nil {
		return nil, fmt.Errorf("ssa: pre-build verify: %w", err)
	}
	tree := dom.New(r)
	defer tree.Release()

	// Collect variables and their definition sites, resolving each
	// variable instruction's name once into varOf (by instruction id; -1
	// for everything else). Verify just proved the ids unique and in
	// range. Parameters define their names at the entry block.
	vars := map[string]int32{} // name -> dense index
	var names []string
	base := r.NumInstrIDs()
	varOf := make([]int32, base)
	var defBlocks [][]*ir.Block // by var: blocks with defs, in block order
	var lastDef []int32         // by var: 1 + index of the last block recorded
	for k, b := range r.Blocks {
		for _, i := range b.Instrs {
			varOf[i.ID] = -1
			switch i.Op {
			case ir.OpVarWrite, ir.OpVarRead, ir.OpParam:
			default:
				continue
			}
			v, ok := vars[i.Name]
			if !ok {
				v = int32(len(names))
				vars[i.Name] = v
				names = append(names, i.Name)
				defBlocks = append(defBlocks, nil)
				lastDef = append(lastDef, 0)
			}
			varOf[i.ID] = v
			if i.Op != ir.OpVarRead && lastDef[v] != int32(k+1) {
				lastDef[v] = int32(k + 1)
				defBlocks[v] = append(defBlocks[v], b)
			}
		}
	}
	if len(names) == 0 {
		return nil, nil // already SSA (or no variables at all)
	}

	live := newLiveness(r, varOf, len(names))
	globals := live.globals()

	// φ-placement on iterated dominance frontiers. placed and inWork are
	// per-block stamps holding 1 + the variable last marked, so one pair
	// of tables serves every variable. The k'th φ placed gets id base+k,
	// and its variable is appended to varOf, keeping it indexed by id.
	p := &ir.SSAPlan{}
	// Every new name (placed φs first, then renames in walk order) is
	// written into one buffer; nameEnds records where each ends, and
	// the names become substrings of one string at the end.
	var nameBuf []byte
	var nameEnds []int32
	newName := func(v string, id int) {
		nameBuf = append(nameBuf, v...)
		nameBuf = append(nameBuf, '_')
		nameBuf = strconv.AppendInt(nameBuf, int64(id), 10)
		nameEnds = append(nameEnds, int32(len(nameBuf)))
	}
	df := tree.Frontier()
	nb := r.NumBlockIDs()
	placed := make([]int32, nb)
	inWork := make([]int32, nb)
	var work []*ir.Block
	for v := range names {
		if placement != Minimal && !globals[v] {
			continue
		}
		stamp := int32(v + 1)
		work = append(work[:0], defBlocks[v]...)
		for _, b := range work {
			inWork[b.ID] = stamp
		}
		for len(work) > 0 {
			b := work[len(work)-1]
			work = work[:len(work)-1]
			for _, y := range df[b.ID] {
				if placed[y.ID] == stamp {
					continue
				}
				if placement == Pruned && !live.liveIn(y, v) {
					continue
				}
				placed[y.ID] = stamp
				p.PhiBlock = append(p.PhiBlock, y)
				newName(names[v], len(varOf))
				varOf = append(varOf, int32(v))
				if inWork[y.ID] != stamp {
					inWork[y.ID] = stamp
					work = append(work, y)
				}
			}
		}
	}

	// The placed φs of each block, as a list threaded through phiNext
	// from phiHead (by block id; -1 ends a list), and each φ's first
	// argument slot in PhiArgs. Unfilled slots read -1.
	nphi := len(p.PhiBlock)
	ints := make([]int32, nb+2*nphi)
	phiHead, phiNext, argStart := ints[:nb], ints[nb:nb+nphi], ints[nb+nphi:]
	for k := range phiHead {
		phiHead[k] = -1
	}
	nargs := 0
	for k, b := range p.PhiBlock {
		phiNext[k] = phiHead[b.ID]
		phiHead[b.ID] = int32(k)
		argStart[k] = int32(nargs)
		nargs += len(b.Preds)
	}
	p.PhiArgs = make([]int32, nargs)
	for k := range p.PhiArgs {
		p.PhiArgs[k] = -1
	}
	p.Read = make([]int32, base)
	for k := range p.Read {
		p.Read[k] = -1
	}

	// Renaming: dominator-tree walk with one definition stack per
	// variable, threaded through a shared push log: top[v] indexes v's
	// latest push, and each push records the one it shadows. A block
	// pops back to the mark it took on entry. Definitions are value ids;
	// a VarRead's definition is recorded in p.Read as it is reached.
	undefID := int32(base + nphi)
	top := make([]int32, len(names))
	for k := range top {
		top[k] = -1
	}
	var pushVar, pushVal, pushPrev []int32
	push := func(v, def int32) {
		pushVar = append(pushVar, v)
		pushVal = append(pushVal, def)
		pushPrev = append(pushPrev, top[v])
		top[v] = int32(len(pushVal) - 1)
	}
	currentDef := func(v int32) int32 {
		if t := top[v]; t >= 0 {
			return pushVal[t]
		}
		p.Undef = true
		return undefID
	}
	// resolve follows reads already reached to the value they read. A
	// chain longer than the id space can only be a cycle of reads, which
	// a routine whose uses are dominated by their definitions never has.
	cyclic := false
	resolve := func(id int32) int32 {
		for n := 0; int(id) < base && p.Read[id] >= 0; n++ {
			if n > base {
				cyclic = true
				return id
			}
			id = p.Read[id]
		}
		return id
	}
	var walk func(b *ir.Block)
	walk = func(b *ir.Block) {
		mark := len(pushVal)
		for k := phiHead[b.ID]; k >= 0; k = phiNext[k] {
			push(varOf[base+int(k)], int32(base)+k)
		}
		for _, i := range b.Instrs {
			switch i.Op {
			case ir.OpParam:
				push(varOf[i.ID], int32(i.ID))
			case ir.OpVarRead:
				p.Read[i.ID] = currentDef(varOf[i.ID])
			case ir.OpVarWrite:
				// A read argument resolves to a definition that is
				// already named; anything else is its own definition
				// and takes the variable's name once.
				a := i.Args[0]
				if a.Op != ir.OpVarRead && a.Name == "" && varOf[a.ID] != renamed {
					varOf[a.ID] = renamed
					p.Renames = append(p.Renames, ir.SSARename{ID: int32(a.ID)})
					newName(i.Name, a.ID)
				}
				push(varOf[i.ID], resolve(int32(a.ID)))
			}
		}
		for _, e := range b.Succs {
			for k := phiHead[e.To.ID]; k >= 0; k = phiNext[k] {
				p.PhiArgs[argStart[k]+int32(e.InIndex())] = currentDef(varOf[base+int(k)])
			}
		}
		for _, c := range tree.Children(b) {
			walk(c)
		}
		for t := len(pushVal) - 1; t >= mark; t-- {
			top[pushVar[t]] = pushPrev[t]
		}
		pushVar, pushVal, pushPrev = pushVar[:mark], pushVal[:mark], pushPrev[:mark]
	}
	walk(r.Entry())

	// Reads in statically unreachable blocks (the walk never visits
	// them) and φ slots on unreachable predecessors get the constant 0
	// — GVN will prove them unreachable anyway. Then every read and φ
	// argument is resolved to a value that survives construction.
	for _, b := range r.Blocks {
		if tree.Contains(b) {
			continue
		}
		for _, i := range b.Instrs {
			if i.Op == ir.OpVarRead {
				p.Read[i.ID] = currentDef(varOf[i.ID])
			}
		}
	}
	for k, v := range p.PhiArgs {
		if v < 0 {
			p.Undef = true
			p.PhiArgs[k] = undefID
		} else {
			p.PhiArgs[k] = resolve(v)
		}
	}
	for k, v := range p.Read {
		if v >= 0 {
			p.Read[k] = resolve(v)
		}
	}
	if cyclic {
		return nil, fmt.Errorf("ssa: %s: variable reads form a cycle", r.Name)
	}
	all := string(nameBuf)
	start := int32(0)
	p.PhiName = make([]string, nphi)
	for k, end := range nameEnds {
		if k < nphi {
			p.PhiName[k] = all[start:end]
		} else {
			p.Renames[k-nphi].Name = all[start:end]
		}
		start = end
	}
	return p, nil
}
