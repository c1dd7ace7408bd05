// Package ir defines the mid-level intermediate representation used by the
// predicated global value numbering library: routines made of basic blocks
// connected by explicit control-flow edges, with instructions that double as
// SSA values.
//
// The representation is deliberately close to the one in Gargi's PLDI 2002
// paper: every value-producing instruction defines exactly one value, blocks
// end in exactly one terminator (jump, branch, switch or return), and
// φ-instructions carry one argument per incoming edge, aligned with the
// block's predecessor order.
//
// Routines start out in a non-SSA form in which variables are read and
// written by VarRead/VarWrite pseudo-instructions; package ssa plans their
// SSA form (φs to insert, reads to resolve) and this package materializes
// the plan, in place or as a new routine without the pseudo-instructions.
package ir

import (
	"fmt"
	"strconv"
)

// Op identifies the operation performed by an instruction.
type Op uint8

// Instruction opcodes.
const (
	// OpInvalid is the zero Op; it never appears in a valid routine.
	OpInvalid Op = iota

	// Value-producing operations.
	OpConst // integer constant (Instr.Const)
	OpParam // routine parameter (entry block only)
	OpCopy  // copy of Args[0]
	OpNeg   // arithmetic negation of Args[0]
	OpAdd   // Args[0] + Args[1]
	OpSub   // Args[0] - Args[1]
	OpMul   // Args[0] * Args[1]
	OpDiv   // Args[0] / Args[1] (by convention x/0 == 0)
	OpMod   // Args[0] % Args[1] (by convention x%0 == 0)
	OpEq    // Args[0] == Args[1] (1 or 0)
	OpNe    // Args[0] != Args[1]
	OpLt    // Args[0] <  Args[1]
	OpLe    // Args[0] <= Args[1]
	OpGt    // Args[0] >  Args[1]
	OpGe    // Args[0] >= Args[1]
	OpPhi   // SSA φ; Args[i] arrives on Block.Preds[i]
	OpCall  // pure opaque call of function Instr.Name on Args

	// Non-SSA variable pseudo-instructions (removed by SSA construction).
	OpVarRead  // read of variable Instr.Name
	OpVarWrite // write of Args[0] to variable Instr.Name

	// Terminators.
	OpJump   // unconditional jump to Succs[0]
	OpBranch // if Args[0] != 0 goto Succs[0] else Succs[1]
	OpSwitch // multiway: Succs[i] if Args[0] == Block.Cases[i], else last Succ
	OpReturn // return Args[0]

	numOps
)

var opNames = [numOps]string{
	OpInvalid:  "invalid",
	OpConst:    "const",
	OpParam:    "param",
	OpCopy:     "copy",
	OpNeg:      "neg",
	OpAdd:      "add",
	OpSub:      "sub",
	OpMul:      "mul",
	OpDiv:      "div",
	OpMod:      "mod",
	OpEq:       "eq",
	OpNe:       "ne",
	OpLt:       "lt",
	OpLe:       "le",
	OpGt:       "gt",
	OpGe:       "ge",
	OpPhi:      "phi",
	OpCall:     "call",
	OpVarRead:  "varread",
	OpVarWrite: "varwrite",
	OpJump:     "jump",
	OpBranch:   "branch",
	OpSwitch:   "switch",
	OpReturn:   "return",
}

// String returns the mnemonic of the opcode.
func (op Op) String() string {
	if op >= numOps {
		return "op(" + strconv.Itoa(int(op)) + ")"
	}
	return opNames[op]
}

// HasValue reports whether instructions with this opcode define a value.
func (op Op) HasValue() bool {
	switch op {
	case OpConst, OpParam, OpCopy, OpNeg, OpAdd, OpSub, OpMul, OpDiv, OpMod,
		OpEq, OpNe, OpLt, OpLe, OpGt, OpGe, OpPhi, OpCall, OpVarRead:
		return true
	}
	return false
}

// IsTerminator reports whether instructions with this opcode end a block.
func (op Op) IsTerminator() bool {
	switch op {
	case OpJump, OpBranch, OpSwitch, OpReturn:
		return true
	}
	return false
}

// IsCompare reports whether the opcode is a comparison producing 0 or 1.
func (op Op) IsCompare() bool {
	switch op {
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		return true
	}
	return false
}

// IsCommutative reports whether the operands of the opcode may be swapped
// without changing the result.
func (op Op) IsCommutative() bool {
	switch op {
	case OpAdd, OpMul, OpEq, OpNe:
		return true
	}
	return false
}

// Negate returns the comparison that is true exactly when op is false.
// It panics if op is not a comparison.
func (op Op) Negate() Op {
	switch op {
	case OpEq:
		return OpNe
	case OpNe:
		return OpEq
	case OpLt:
		return OpGe
	case OpLe:
		return OpGt
	case OpGt:
		return OpLe
	case OpGe:
		return OpLt
	}
	panic("ir: Negate of non-comparison " + op.String())
}

// Reverse returns the comparison obtained by swapping the operands:
// a op b == b op.Reverse() a. It panics if op is not a comparison.
func (op Op) Reverse() Op {
	switch op {
	case OpEq:
		return OpEq
	case OpNe:
		return OpNe
	case OpLt:
		return OpGt
	case OpLe:
		return OpGe
	case OpGt:
		return OpLt
	case OpGe:
		return OpLe
	}
	panic("ir: Reverse of non-comparison " + op.String())
}

// Instr is a single instruction. Value-producing instructions are themselves
// the SSA values they define; the pointer is the value's identity.
type Instr struct {
	// ID is a routine-unique identifier, dense from 0 in creation order.
	ID int
	// Op is the operation.
	Op Op
	// Block is the containing basic block.
	Block *Block
	// Args are the SSA value operands.
	Args []*Instr
	// Const is the constant for OpConst.
	Const int64
	// Name is the variable name for OpVarRead/OpVarWrite, the callee name
	// for OpCall, and an optional source-level name elsewhere (used for
	// readable printing; SSA renaming fills it in).
	Name string

	// uses lists the instructions currently using this value as an
	// argument (with duplicates if used several times). Maintained by
	// the mutation helpers in this package.
	uses []*Instr
}

// HasValue reports whether the instruction defines a value.
func (i *Instr) HasValue() bool { return i.Op.HasValue() }

// Uses returns the instructions that use this value as an argument. The
// returned slice is shared; callers must not modify it. An instruction
// using the value k times appears k times.
func (i *Instr) Uses() []*Instr { return i.uses }

// NumUses returns the number of argument slots referencing this value.
func (i *Instr) NumUses() int { return len(i.uses) }

// addUse records that user consumes i.
func (i *Instr) addUse(user *Instr) { i.uses = append(i.uses, user) }

// removeUse deletes one occurrence of user from i's use list.
func (i *Instr) removeUse(user *Instr) {
	for k, u := range i.uses {
		if u == user {
			last := len(i.uses) - 1
			i.uses[k] = i.uses[last]
			i.uses[last] = nil
			i.uses = i.uses[:last]
			return
		}
	}
	panic(fmt.Sprintf("ir: removeUse: %s does not use %s", user, i))
}

// SetArg replaces argument k with v, maintaining use lists.
func (i *Instr) SetArg(k int, v *Instr) {
	if old := i.Args[k]; old != nil {
		old.removeUse(i)
	}
	i.Args[k] = v
	if v != nil {
		v.addUse(i)
	}
}

// ReplaceUses rewrites every use of i as an argument to use v instead.
func (i *Instr) ReplaceUses(v *Instr) {
	for len(i.uses) > 0 {
		user := i.uses[len(i.uses)-1]
		for k, a := range user.Args {
			if a == i {
				user.SetArg(k, v)
				break
			}
		}
	}
}

// RemoveArg deletes argument slot k (used when φ inputs disappear together
// with their incoming edge), maintaining use lists and preserving order.
func (i *Instr) RemoveArg(k int) {
	i.Args[k].removeUse(i)
	i.Args = append(i.Args[:k], i.Args[k+1:]...)
}

// clearArgs drops all arguments, maintaining use lists.
func (i *Instr) clearArgs() {
	for _, a := range i.Args {
		if a != nil {
			a.removeUse(i)
		}
	}
	i.Args = i.Args[:0]
}

// ValueName returns a stable printable name for the value: the source-level
// name when present, otherwise v<ID>.
func (i *Instr) ValueName() string {
	if i.Name != "" && i.Op != OpCall {
		return i.Name
	}
	return "v" + strconv.Itoa(i.ID)
}

// String returns a short printable form of the instruction.
func (i *Instr) String() string {
	return sprintInstr(i)
}

// Edge is a control-flow edge. Edges have identity: the GVN algorithm keys
// reachability and predicates by edge.
type Edge struct {
	// From is the originating block; To is the destination block.
	From, To *Block
	// outIndex is the index of this edge in From.Succs.
	outIndex int
	// inIndex is the index of this edge in To.Preds (and of the
	// corresponding φ argument slot in To's φ-instructions).
	inIndex int
}

// InIndex returns the index of the edge within To.Preds, which is also the
// φ-argument slot the edge feeds.
func (e *Edge) InIndex() int { return e.inIndex }

// String returns "from->to".
func (e *Edge) String() string { return e.From.Name + "->" + e.To.Name }

// Block is a basic block: a straight-line instruction sequence ending in a
// terminator, with φ-instructions (if any) at the front.
type Block struct {
	// ID is a routine-unique identifier, dense from 0 in creation order.
	ID int
	// Name is the block label.
	Name string
	// Routine is the containing routine.
	Routine *Routine
	// Instrs holds the instructions in execution order. In a valid block
	// φs come first and the final instruction is the only terminator.
	Instrs []*Instr
	// Preds and Succs are the incoming and outgoing edges.
	Preds, Succs []*Edge
	// Cases are the selector constants of the block's OpSwitch
	// terminator; len(Cases) must be len(Succs)-1, with the final
	// successor acting as the default. They live on the block, not the
	// instruction, because only switches have them.
	Cases []int64
}

// Terminator returns the block's final instruction, or nil if the block is
// empty or its last instruction is not a terminator.
func (b *Block) Terminator() *Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	if t := b.Instrs[len(b.Instrs)-1]; t.Op.IsTerminator() {
		return t
	}
	return nil
}

// Phis returns the block's φ-instructions (the leading OpPhi run).
func (b *Block) Phis() []*Instr {
	n := 0
	for n < len(b.Instrs) && b.Instrs[n].Op == OpPhi {
		n++
	}
	return b.Instrs[:n]
}

// String returns the block label.
func (b *Block) String() string { return b.Name }

// Routine is a single function: an entry block plus the rest of the CFG.
type Routine struct {
	// Name is the routine name.
	Name string
	// Params are the OpParam instructions, in declaration order; they
	// live at the front of the entry block.
	Params []*Instr
	// Blocks lists all basic blocks; Blocks[0] is the entry block.
	Blocks []*Block

	nextInstrID int
	nextBlockID int

	// instrSlab and argSlab are the unused tails of the chunks newInstr
	// carves instructions and argument lists from; instrChunk and
	// argChunk are the sizes of the last chunks allocated. The chunks
	// belong to this routine alone and die with it.
	instrSlab  []Instr
	argSlab    []*Instr
	instrChunk int
	argChunk   int

	// store is the storage MaterializeSSA carved the routine from, which
	// Release hands back to its Scratch; nil for every other routine.
	store *ssaStore
}

// NewRoutine creates an empty routine with an entry block named "entry".
func NewRoutine(name string) *Routine {
	r := &Routine{Name: name}
	r.NewBlock("entry")
	return r
}

// Entry returns the entry block.
func (r *Routine) Entry() *Block { return r.Blocks[0] }

// NumInstrIDs returns an upper bound (exclusive) on instruction IDs in the
// routine, suitable for sizing dense side tables.
func (r *Routine) NumInstrIDs() int { return r.nextInstrID }

// NumBlockIDs returns an upper bound (exclusive) on block IDs.
func (r *Routine) NumBlockIDs() int { return r.nextBlockID }

// NewBlock appends a new empty block with the given label. If the label is
// empty or already taken a unique "b<ID>" label is used instead.
func (r *Routine) NewBlock(name string) *Block {
	b := &Block{ID: r.nextBlockID, Routine: r}
	r.nextBlockID++
	if name == "" {
		name = "b" + strconv.Itoa(b.ID)
	}
	b.Name = name
	r.Blocks = append(r.Blocks, b)
	return b
}

// AddParam appends a parameter with the given name to the routine. Params
// are placed at the front of the entry block, before any other instructions.
func (r *Routine) AddParam(name string) *Instr {
	p := r.newInstr(OpParam)
	p.Name = name
	entry := r.Entry()
	p.Block = entry
	entry.Instrs = append(entry.Instrs, nil)
	copy(entry.Instrs[len(r.Params)+1:], entry.Instrs[len(r.Params):])
	entry.Instrs[len(r.Params)] = p
	r.Params = append(r.Params, p)
	return p
}

// newInstr carves a detached instruction with a fresh ID from the
// routine's instruction chunk, and its arguments from the argument chunk
// at exact length. Chunks double from 16 instructions (32 argument
// slots) up to 64 (128), so a routine of n instructions costs
// O(log n + n/64) allocations instead of one or two per instruction.
// The cap bounds the unused tail a routine keeps alive: with 256-entry
// chunks the parsed batch unit held 15% more live heap than with 64.
func (r *Routine) newInstr(op Op, args ...*Instr) *Instr {
	if len(r.instrSlab) == 0 {
		r.instrChunk = min(max(2*r.instrChunk, 16), 64)
		r.instrSlab = make([]Instr, r.instrChunk)
	}
	i := &r.instrSlab[0]
	r.instrSlab = r.instrSlab[1:]
	i.ID, i.Op = r.nextInstrID, op
	r.nextInstrID++
	if op.HasValue() {
		// Most values have one use; its slot comes from the chunk too.
		i.uses = r.carveArgs(1)[:0]
	}
	if len(args) > 0 {
		i.Args = r.carveArgs(len(args))
		copy(i.Args, args)
		for _, a := range args {
			a.addUse(i)
		}
	}
	return i
}

// carveArgs returns n argument slots from the routine's argument chunk
// as a full slice (cap == len), so a later append on one instruction's
// Args reallocates instead of writing into its neighbour's.
func (r *Routine) carveArgs(n int) []*Instr {
	if len(r.argSlab) < n {
		r.argChunk = min(max(2*r.argChunk, 32), 128)
		r.argSlab = make([]*Instr, max(r.argChunk, n))
	}
	s := r.argSlab[:n:n]
	r.argSlab = r.argSlab[n:]
	return s
}

// Append creates an instruction and appends it to block b.
func (r *Routine) Append(b *Block, op Op, args ...*Instr) *Instr {
	i := r.newInstr(op, args...)
	i.Block = b
	b.Instrs = append(b.Instrs, i)
	return i
}

// InsertBefore creates an instruction and inserts it immediately before pos
// in pos's block.
func (r *Routine) InsertBefore(pos *Instr, op Op, args ...*Instr) *Instr {
	i := r.newInstr(op, args...)
	b := pos.Block
	i.Block = b
	for k, ins := range b.Instrs {
		if ins == pos {
			b.Instrs = append(b.Instrs, nil)
			copy(b.Instrs[k+1:], b.Instrs[k:])
			b.Instrs[k] = i
			return i
		}
	}
	panic("ir: InsertBefore: position not found in its block")
}

// InsertPhi creates a φ in block b with one nil argument slot per incoming
// edge and places it at the front of the block (after existing φs).
func (r *Routine) InsertPhi(b *Block) *Instr {
	i := r.newInstr(OpPhi)
	i.Block = b
	if len(b.Preds) > 0 {
		i.Args = r.carveArgs(len(b.Preds))
	}
	n := len(b.Phis())
	b.Instrs = append(b.Instrs, nil)
	copy(b.Instrs[n+1:], b.Instrs[n:])
	b.Instrs[n] = i
	return i
}

// ConstInt creates (or reuses nothing and just creates) an OpConst with the
// given value in block b.
func (r *Routine) ConstInt(b *Block, c int64) *Instr {
	i := r.Append(b, OpConst)
	i.Const = c
	return i
}

// AddEdge connects from→to, appending to from.Succs and to.Preds. Existing
// φs in to gain a nil argument slot for the new edge. It returns the edge.
func (r *Routine) AddEdge(from, to *Block) *Edge {
	e := &Edge{From: from, To: to, outIndex: len(from.Succs), inIndex: len(to.Preds)}
	from.Succs = append(from.Succs, e)
	to.Preds = append(to.Preds, e)
	for _, phi := range to.Phis() {
		phi.Args = append(phi.Args, nil)
	}
	return e
}

// RemoveInstr deletes instruction i from its block. The instruction must
// have no remaining uses.
func (r *Routine) RemoveInstr(i *Instr) {
	if len(i.uses) > 0 {
		panic("ir: RemoveInstr: instruction still has uses: " + i.String())
	}
	i.clearArgs()
	b := i.Block
	for k, ins := range b.Instrs {
		if ins == i {
			b.Instrs = append(b.Instrs[:k], b.Instrs[k+1:]...)
			i.Block = nil
			return
		}
	}
	panic("ir: RemoveInstr: instruction not found in its block")
}

// RemoveEdge disconnects edge e, fixing the indices of the remaining edges
// and deleting the corresponding φ argument slot in e.To.
func (r *Routine) RemoveEdge(e *Edge) {
	from, to := e.From, e.To
	from.Succs = append(from.Succs[:e.outIndex], from.Succs[e.outIndex+1:]...)
	for k := e.outIndex; k < len(from.Succs); k++ {
		from.Succs[k].outIndex = k
	}
	for _, phi := range to.Phis() {
		if phi.Args[e.inIndex] != nil {
			phi.RemoveArg(e.inIndex)
		} else {
			phi.Args = append(phi.Args[:e.inIndex], phi.Args[e.inIndex+1:]...)
		}
	}
	to.Preds = append(to.Preds[:e.inIndex], to.Preds[e.inIndex+1:]...)
	for k := e.inIndex; k < len(to.Preds); k++ {
		to.Preds[k].inIndex = k
	}
	e.From, e.To = nil, nil
}

// RemoveBlock deletes block b from the routine. All of b's edges must have
// been removed first and its instructions must be dead.
func (r *Routine) RemoveBlock(b *Block) {
	if len(b.Preds) != 0 || len(b.Succs) != 0 {
		panic("ir: RemoveBlock: block still connected: " + b.Name)
	}
	for k := len(b.Instrs) - 1; k >= 0; k-- {
		i := b.Instrs[k]
		i.uses = nil // dead code: uses are within dead blocks only
		i.clearArgs()
		i.Block = nil
	}
	b.Instrs = nil
	for k, blk := range r.Blocks {
		if blk == b {
			r.Blocks = append(r.Blocks[:k], r.Blocks[k+1:]...)
			return
		}
	}
	panic("ir: RemoveBlock: block not found")
}

// Instrs calls fn for every instruction in the routine in block order.
func (r *Routine) Instrs(fn func(*Instr)) {
	for _, b := range r.Blocks {
		for _, i := range b.Instrs {
			fn(i)
		}
	}
}

// NumInstrs returns the total number of instructions in the routine.
func (r *Routine) NumInstrs() int {
	n := 0
	for _, b := range r.Blocks {
		n += len(b.Instrs)
	}
	return n
}
