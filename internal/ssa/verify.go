package ssa

import (
	"fmt"

	"pgvn/internal/dom"
	"pgvn/internal/ir"
)

// Verify checks the SSA dominance property of a converted routine: every
// use of a value is dominated by its definition, where a φ's use of its
// k'th argument is considered to occur at the end of the k'th predecessor
// block. Statically unreachable blocks are exempt (nothing dominates
// them). It also checks that no VarRead/VarWrite pseudo-instructions
// remain.
func Verify(r *ir.Routine) error {
	if !r.IsSSA() {
		return fmt.Errorf("ssa: %s still contains variable pseudo-instructions", r.Name)
	}
	if err := r.Verify(); err != nil {
		return err
	}
	tree := dom.New(r)
	// pos is each instruction's index in its block, by instruction id
	// (r.Verify just proved the ids unique and in range).
	pos := make([]int32, r.NumInstrIDs())
	for _, b := range r.Blocks {
		for k, i := range b.Instrs {
			pos[i.ID] = int32(k)
		}
	}
	dominatesUse := func(def *ir.Instr, useBlock *ir.Block, useIdx int) bool {
		if def.Block == useBlock {
			return int(pos[def.ID]) < useIdx
		}
		return tree.StrictlyDominates(def.Block, useBlock)
	}
	for _, b := range r.Blocks {
		if !tree.Contains(b) {
			continue
		}
		for k, i := range b.Instrs {
			for ai, a := range i.Args {
				if i.Op == ir.OpPhi {
					pred := b.Preds[ai].From
					if !tree.Contains(pred) {
						continue
					}
					if a.Block == pred {
						continue // defined in the predecessor itself
					}
					if !tree.Dominates(a.Block, pred) {
						return fmt.Errorf("ssa: %s: φ %s arg %d (%s) does not dominate pred %s",
							r.Name, i.ValueName(), ai, a.ValueName(), pred.Name)
					}
					continue
				}
				if !tree.Contains(a.Block) || !dominatesUse(a, b, k) {
					return fmt.Errorf("ssa: %s: use of %s in %s at %s not dominated by its definition",
						r.Name, a.ValueName(), b.Name, i)
				}
			}
		}
	}
	return nil
}
