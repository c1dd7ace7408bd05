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
package ssa

import (
	"cmp"
	"fmt"
	"slices"
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
// is structurally invalid.
func Build(r *ir.Routine, placement Placement) error {
	if err := r.Verify(); err != nil {
		return fmt.Errorf("ssa: pre-build verify: %w", err)
	}
	tree := dom.New(r)
	defer tree.Release()

	// Collect variables and their definition sites, resolving each
	// variable instruction's name once into varOf (by instruction id; -1
	// for everything else). Verify just proved the ids unique and in
	// range. Parameters define their names at the entry block.
	vars := map[string]int32{} // name -> dense index
	var names []string
	varOf := make([]int32, r.NumInstrIDs())
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
		return nil // already SSA (or no variables at all)
	}

	live := newLiveness(r, varOf, len(names))
	globals := live.globals()

	// φ-placement on iterated dominance frontiers. placed and inWork are
	// per-block stamps holding 1 + the variable last marked, so one pair
	// of tables serves every variable. Each new φ's variable is appended
	// to varOf, keeping it indexed by instruction id.
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
				phi := r.InsertPhi(y)
				phi.Name = names[v] + "_" + strconv.Itoa(phi.ID)
				varOf = append(varOf, int32(v))
				if inWork[y.ID] != stamp {
					inWork[y.ID] = stamp
					work = append(work, y)
				}
			}
		}
	}

	// Renaming: dominator-tree walk with one definition stack per var.
	// pushLog records the variable of every push; a block pops back to
	// the mark it took on entry.
	stacks := make([][]*ir.Instr, len(names))
	var pushLog []int32
	push := func(v int32, def *ir.Instr) {
		stacks[v] = append(stacks[v], def)
		pushLog = append(pushLog, v)
	}
	var undefZero *ir.Instr // lazily created constant 0 for undefined reads
	currentDef := func(v int32) *ir.Instr {
		if s := stacks[v]; len(s) > 0 {
			return s[len(s)-1]
		}
		if undefZero == nil {
			entry := r.Entry()
			pos := len(r.Params)
			var anchor *ir.Instr
			if pos < len(entry.Instrs) {
				anchor = entry.Instrs[pos]
			}
			if anchor != nil {
				undefZero = r.InsertBefore(anchor, ir.OpConst)
			} else {
				undefZero = r.Append(entry, ir.OpConst)
			}
			undefZero.Const = 0
			undefZero.Name = "undef0"
		}
		return undefZero
	}
	var dead []*ir.Instr
	// snap is the walk's one instruction buffer: resolving an undefined
	// read materializes a constant in the entry block, which must not
	// disturb the iteration. A block is done with it before its children
	// are walked.
	var snap []*ir.Instr
	var walk func(b *ir.Block)
	walk = func(b *ir.Block) {
		mark := len(pushLog)
		snap = append(snap[:0], b.Instrs...)
		for _, i := range snap {
			switch i.Op {
			case ir.OpPhi:
				if v := varOf[i.ID]; v >= 0 { // -1: pre-existing φ
					push(v, i)
				}
			case ir.OpParam:
				push(varOf[i.ID], i)
			case ir.OpVarRead:
				def := currentDef(varOf[i.ID])
				i.ReplaceUses(def)
				dead = append(dead, i)
			case ir.OpVarWrite:
				def := i.Args[0]
				if def.Name == "" {
					def.Name = i.Name + "_" + strconv.Itoa(def.ID)
				}
				push(varOf[i.ID], def)
				dead = append(dead, i)
			}
		}
		for _, e := range b.Succs {
			for _, phi := range e.To.Phis() {
				v := varOf[phi.ID]
				if v < 0 {
					continue // pre-existing φ, already SSA
				}
				phi.SetArg(e.InIndex(), currentDef(v))
			}
		}
		for _, c := range tree.Children(b) {
			walk(c)
		}
		for _, v := range pushLog[mark:] {
			stacks[v] = stacks[v][:len(stacks[v])-1]
		}
		pushLog = pushLog[:mark]
	}
	walk(r.Entry())

	// Fill φ slots on statically unreachable predecessors (the walk never
	// visits them) and delete the pseudo-instructions. Unreachable blocks
	// may still contain VarRead/VarWrite; point them at constants so the
	// routine verifies — GVN will prove them unreachable anyway.
	for _, b := range r.Blocks {
		if tree.Contains(b) {
			continue
		}
		for _, i := range b.Instrs {
			switch i.Op {
			case ir.OpVarRead:
				i.ReplaceUses(currentDef(varOf[i.ID])) // stacks empty: const 0
				dead = append(dead, i)
			case ir.OpVarWrite:
				dead = append(dead, i)
			}
		}
	}
	for _, b := range r.Blocks {
		for _, phi := range b.Phis() {
			v := varOf[phi.ID]
			if v < 0 {
				continue
			}
			for k, a := range phi.Args {
				if a == nil {
					phi.SetArg(k, currentDef(v))
				}
			}
		}
	}
	// Delete in reverse creation order so uses are gone before defs.
	slices.SortFunc(dead, func(a, b *ir.Instr) int { return cmp.Compare(b.ID, a.ID) })
	for _, i := range dead {
		if i.NumUses() > 0 {
			// A VarRead with remaining uses can only mean ReplaceUses
			// missed something; fail loudly.
			return fmt.Errorf("ssa: pseudo-instruction %v still has uses", i)
		}
		r.RemoveInstr(i)
	}
	if err := r.Verify(); err != nil {
		return fmt.Errorf("ssa: post-build verify: %w", err)
	}
	return nil
}
