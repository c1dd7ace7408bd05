package ir

import (
	"fmt"
	"slices"
)

// Verify checks the structural invariants of the routine and returns the
// first violation found, or nil if the routine is well formed.
//
// Checked invariants:
//   - Blocks[0] is the entry block and has no predecessors.
//   - every non-empty block ends in exactly one terminator, and no
//     terminator appears elsewhere;
//   - φs appear only at the front of a block and have one argument per
//     incoming edge;
//   - edge indices are consistent with Succs/Preds positions, and every
//     edge in a pred list is backed by the corresponding successor slot
//     (no phantom or duplicated edges; parallel edges between the same
//     block pair are legal and distinguished by identity);
//   - terminators have the right number of successors, and switch case
//     values are distinct;
//   - argument counts match opcodes, and arguments are value-producing
//     instructions belonging to this routine;
//   - use lists exactly mirror argument lists;
//   - parameters are non-nil and appear only at the front of the entry
//     block;
//   - instruction and block ids are routine-unique and lie in
//     [0, NumInstrIDs()) and [0, NumBlockIDs()), the protocol every
//     id-indexed side table relies on.
//
// Membership is an identity test on a table indexed by Instr.ID: a is a
// member iff the table's owner at a.ID is a itself, so a foreign
// instruction is rejected even when its id collides with a member's.
func (r *Routine) Verify() error { return r.VerifyIn(nil) }

// VerifyIn is Verify with its tables taken from s (nil allocates them).
func (r *Routine) VerifyIn(s *Scratch) error {
	if len(r.Blocks) == 0 {
		return fmt.Errorf("%s: no blocks", r.Name)
	}
	if len(r.Entry().Preds) != 0 {
		return fmt.Errorf("%s: entry block has predecessors", r.Name)
	}
	tab := s.orNew()
	blockOwner := tab.blocks.Take(r.NumBlockIDs())
	for _, b := range r.Blocks {
		if b.ID < 0 || b.ID >= len(blockOwner) {
			return fmt.Errorf("%s: block %s has id %d outside [0, %d)",
				r.Name, b.Name, b.ID, len(blockOwner))
		}
		if o := blockOwner[b.ID]; o != nil {
			return fmt.Errorf("%s: blocks %s and %s share id %d", r.Name, o.Name, b.Name, b.ID)
		}
		blockOwner[b.ID] = b
	}
	ids := tab.slots.Take(r.NumInstrIDs())
	for _, b := range r.Blocks {
		for _, i := range b.Instrs {
			if i.ID < 0 || i.ID >= len(ids) {
				return fmt.Errorf("%s: %s has id %d outside [0, %d)",
					r.Name, i.ValueName(), i.ID, len(ids))
			}
			if o := ids[i.ID].owner; o != nil {
				return fmt.Errorf("%s: %s and %s share id %d",
					r.Name, o.ValueName(), i.ValueName(), i.ID)
			}
			ids[i.ID].owner = i
		}
	}
	for _, b := range r.Blocks {
		if err := r.verifyBlock(b, ids, tab); err != nil {
			return err
		}
	}
	// Use lists must exactly mirror argument references.
	for _, b := range r.Blocks {
		for _, i := range b.Instrs {
			if len(i.uses) != int(ids[i.ID].uses) {
				return fmt.Errorf("%s: %s has %d recorded uses, %d actual",
					r.Name, i.ValueName(), len(i.uses), ids[i.ID].uses)
			}
			for _, u := range i.uses {
				if !isMember(ids, u) {
					return fmt.Errorf("%s: %s used by foreign instruction", r.Name, i.ValueName())
				}
			}
		}
	}
	for k, p := range r.Params {
		if p == nil {
			return fmt.Errorf("%s: param %d is nil", r.Name, k)
		}
		if p.Op != OpParam {
			return fmt.Errorf("%s: param %d is %s", r.Name, k, p.Op)
		}
		if k >= len(r.Entry().Instrs) || r.Entry().Instrs[k] != p {
			return fmt.Errorf("%s: param %s not at front of entry", r.Name, p.ValueName())
		}
	}
	return nil
}

// idSlot is Verify's per-instruction-id record: the member holding the
// id and the number of argument slots referencing it.
type idSlot struct {
	owner *Instr
	uses  int32
}

// isMember is the identity test on a table indexed by Instr.ID.
func isMember(ids []idSlot, i *Instr) bool {
	return i != nil && i.ID >= 0 && i.ID < len(ids) && ids[i.ID].owner == i
}

func (r *Routine) verifyBlock(b *Block, ids []idSlot, tab *Scratch) error {
	if b.Routine != r {
		return fmt.Errorf("%s: block %s belongs to another routine", r.Name, b.Name)
	}
	for k, e := range b.Succs {
		if e.From != b || e.outIndex != k {
			return fmt.Errorf("%s: block %s succ %d has bad edge indices", r.Name, b.Name, k)
		}
		if e.inIndex < 0 || e.inIndex >= len(e.To.Preds) || e.To.Preds[e.inIndex] != e {
			return fmt.Errorf("%s: edge %s not mirrored in dest preds", r.Name, e)
		}
	}
	for k, e := range b.Preds {
		if e.To != b || e.inIndex != k {
			return fmt.Errorf("%s: block %s pred %d has bad edge indices", r.Name, b.Name, k)
		}
		// The succ loop above proves every successor edge appears in its
		// destination's pred list; this is the converse, rejecting
		// phantom or duplicated edges fabricated in a pred list without
		// a backing successor slot. Note parallel edges between the same
		// block pair remain legal — a branch or switch may target one
		// block through several edges (each carrying its own φ slot),
		// and SimplifyCFG creates such pairs when retargeting — so
		// duplication is defined by edge identity, not by endpoints.
		if e.outIndex < 0 || e.outIndex >= len(e.From.Succs) || e.From.Succs[e.outIndex] != e {
			return fmt.Errorf("%s: edge %s not mirrored in source succs", r.Name, e)
		}
	}
	seenNonPhi := false
	for idx, i := range b.Instrs {
		if i.Block != b {
			return fmt.Errorf("%s: %s in block %s has Block=%v", r.Name, i.ValueName(), b.Name, i.Block)
		}
		if i.Op.IsTerminator() && idx != len(b.Instrs)-1 {
			return fmt.Errorf("%s: terminator %s not last in block %s", r.Name, i, b.Name)
		}
		if i.Op == OpPhi {
			if seenNonPhi {
				return fmt.Errorf("%s: φ after non-φ in block %s", r.Name, b.Name)
			}
			if len(i.Args) != len(b.Preds) {
				return fmt.Errorf("%s: φ %s has %d args for %d preds",
					r.Name, i.ValueName(), len(i.Args), len(b.Preds))
			}
		} else {
			seenNonPhi = true
		}
		if err := verifyArity(i); err != nil {
			return fmt.Errorf("%s: block %s: %v", r.Name, b.Name, err)
		}
		for _, a := range i.Args {
			if a == nil {
				return fmt.Errorf("%s: %s has nil argument", r.Name, i)
			}
			if !isMember(ids, a) {
				return fmt.Errorf("%s: %s uses foreign value", r.Name, i)
			}
			if !a.HasValue() {
				return fmt.Errorf("%s: %s uses non-value %s", r.Name, i, a)
			}
			ids[a.ID].uses++
		}
		if i.Op == OpParam && b != r.Entry() {
			return fmt.Errorf("%s: param outside entry block", r.Name)
		}
	}
	switch t := b.Terminator(); {
	case t == nil && len(b.Instrs) > 0:
		return fmt.Errorf("%s: block %s lacks a terminator", r.Name, b.Name)
	case t != nil:
		want := -1
		switch t.Op {
		case OpJump:
			want = 1
		case OpBranch:
			want = 2
		case OpReturn:
			want = 0
		case OpSwitch:
			want = len(b.Cases) + 1
			// Sorted, a duplicate sits next to its twin; the smallest
			// duplicated value is reported.
			cases := tab.cases.Take(len(b.Cases))
			copy(cases, b.Cases)
			slices.Sort(cases)
			for k := 1; k < len(cases); k++ {
				if c := cases[k]; c == cases[k-1] {
					return fmt.Errorf("%s: block %s: switch has duplicate case %d", r.Name, b.Name, c)
				}
			}
		}
		if want >= 0 && len(b.Succs) != want {
			return fmt.Errorf("%s: block %s has %d successors, %s wants %d",
				r.Name, b.Name, len(b.Succs), t.Op, want)
		}
	}
	return nil
}

func verifyArity(i *Instr) error {
	want := -1
	switch i.Op {
	case OpConst, OpParam, OpVarRead:
		want = 0
	case OpCopy, OpNeg, OpVarWrite, OpReturn, OpBranch, OpSwitch:
		want = 1
	case OpAdd, OpSub, OpMul, OpDiv, OpMod, OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		want = 2
	case OpJump:
		want = 0
	case OpPhi, OpCall:
		want = -1 // variadic
	case OpInvalid:
		return fmt.Errorf("invalid opcode on %s", i.ValueName())
	}
	if want >= 0 && len(i.Args) != want {
		return fmt.Errorf("%s has %d args, want %d", i, len(i.Args), want)
	}
	return nil
}

// IsSSA reports whether the routine contains no VarRead/VarWrite
// pseudo-instructions, i.e. has been converted to SSA form.
func (r *Routine) IsSSA() bool {
	for _, b := range r.Blocks {
		for _, i := range b.Instrs {
			if i.Op == OpVarRead || i.Op == OpVarWrite {
				return false
			}
		}
	}
	return true
}
