package ir

// This file implements the arena (struct-of-arrays) view of a routine:
// instructions, operands, use lists, block membership and CFG edges
// flattened into dense slices addressed by uint32 ids, carved from one
// counted table per routine that a Scratch keeps for the next one. The
// pointer-based API remains the mutable
// representation; an Arena is an immutable snapshot of it, built in one
// pass by FreezeArena, over which analyses (notably the GVN fixpoint in
// internal/core) iterate without chasing *Instr/*Block pointers.
//
// Id protocol:
//
//   - InstrID and BlockID are the routine's existing dense ids
//     (Instr.ID, Block.ID) narrowed to uint32. Removed instructions
//     leave holes: Op(id) == OpInvalid and BlockOf(id) == NoBlock.
//   - EdgeID numbers edges by destination: the edges entering block b
//     occupy [PredStart(b), PredEnd(b)), in predecessor order, so
//     EdgeID = PredStart(e.To) + e.InIndex(). This matches the dense
//     edge indexing internal/core has always used for its per-edge
//     state, making the two numbering schemes interchangeable.

// InstrID is a dense instruction id (Instr.ID narrowed to uint32). It is
// an alias, not a defined type, so id slices can be carved from the
// arena's single uint32 pool without per-element conversions.
type InstrID = uint32

// BlockID is a dense block id (Block.ID narrowed to uint32).
type BlockID = uint32

// EdgeID is a dense edge id: PredStart(e.To) + e.InIndex().
type EdgeID = uint32

// NoInstr and NoBlock are sentinel ids (all ones).
const (
	NoInstr InstrID = ^InstrID(0)
	NoBlock BlockID = ^BlockID(0)
)

// Arena is a frozen struct-of-arrays snapshot of one routine. It is
// immutable and safe for concurrent readers; mutating the routine does
// not update it (freeze again after mutation).
type Arena struct {
	numInstrIDs int // id-space size (holes included)
	numBlockIDs int
	numEdges    int

	op      []Op // by InstrID; OpInvalid marks holes
	blockOf []BlockID
	argOff  []uint32 // len numInstrIDs+1: CSR offsets into args
	args    []InstrID
	useOff  []uint32 // len numInstrIDs+1: CSR offsets into uses
	uses    []InstrID

	instrOff []uint32 // len numBlockIDs+1: CSR offsets into instrs
	instrs   []InstrID
	phiEnd   []uint32  // by BlockID: count of leading φs
	term     []InstrID // by BlockID: terminator, or NoInstr

	predOff  []uint32  // len numBlockIDs+1: EdgeID ranges by destination
	edgeFrom []BlockID // by EdgeID
	edgeTo   []BlockID // by EdgeID
	succOff  []uint32  // len numBlockIDs+1: CSR offsets into succEdge
	succEdge []EdgeID  // outgoing EdgeIDs in successor order

	instrPtr []*Instr // by InstrID; nil for holes
	blockPtr []*Block // by BlockID; nil for holes
}

// FreezeArena builds the struct-of-arrays snapshot of r. All uint32
// index data is carved from one counted table and the opcodes from
// another, both taken from s (nil allocates them); the arena is valid
// until s is reset or freezes another routine. The pointer tables
// (InstrPtrs) are allocated per arena, as consumers keep them past it.
func FreezeArena(r *Routine, s *Scratch) *Arena {
	ni := r.NumInstrIDs()
	nb := r.NumBlockIDs()

	// Count payload sizes.
	nInstrs, nArgs, nEdges := 0, 0, 0
	for _, b := range r.Blocks {
		nInstrs += len(b.Instrs)
		nEdges += len(b.Preds)
		for _, i := range b.Instrs {
			nArgs += len(i.Args)
		}
	}

	a := &Arena{
		numInstrIDs: ni,
		numBlockIDs: nb,
		numEdges:    nEdges,
	}
	total := ni + // blockOf
		(ni + 1) + nArgs + // argOff, args
		(ni + 1) + nArgs + // useOff, uses
		(nb + 1) + nInstrs + // instrOff, instrs
		nb + nb + // phiEnd, term
		(nb + 1) + nEdges + nEdges + // predOff, edgeFrom, edgeTo
		(nb + 1) + nEdges // succOff, succEdge
	s = s.orNew()
	pool := s.pool.Take(total)
	carve := func(n int) []uint32 {
		s := pool[:n:n]
		pool = pool[n:]
		return s
	}
	a.blockOf = carve(ni)
	a.argOff = carve(ni + 1)
	a.args = carve(nArgs)
	a.useOff = carve(ni + 1)
	a.uses = carve(nArgs)
	a.instrOff = carve(nb + 1)
	a.instrs = carve(nInstrs)
	a.phiEnd = carve(nb)
	a.term = carve(nb)
	a.predOff = carve(nb + 1)
	a.edgeFrom = carve(nEdges)
	a.edgeTo = carve(nEdges)
	a.succOff = carve(nb + 1)
	a.succEdge = carve(nEdges)

	a.op = s.op.Take(ni)
	a.instrPtr = make([]*Instr, ni)
	a.blockPtr = make([]*Block, nb)

	for k := range a.blockOf {
		a.blockOf[k] = NoBlock
	}
	for k := range a.term {
		a.term[k] = NoInstr
	}

	// Pass 1: per-id arg/use counts (stored shifted by one so the
	// prefix-sum pass leaves offsets in place), block contents and edges.
	for _, b := range r.Blocks {
		bid := BlockID(b.ID)
		a.blockPtr[bid] = b
		a.instrOff[bid+1] = uint32(len(b.Instrs))
		a.predOff[bid+1] = uint32(len(b.Preds))
		a.succOff[bid+1] = uint32(len(b.Succs))
		for _, i := range b.Instrs {
			id := InstrID(i.ID)
			a.op[id] = i.Op
			a.blockOf[id] = bid
			a.instrPtr[id] = i
			a.argOff[id+1] = uint32(len(i.Args))
			a.useOff[id+1] = uint32(len(i.uses))
		}
	}
	for k := 0; k < ni; k++ {
		a.argOff[k+1] += a.argOff[k]
		a.useOff[k+1] += a.useOff[k]
	}
	for k := 0; k < nb; k++ {
		a.instrOff[k+1] += a.instrOff[k]
		a.predOff[k+1] += a.predOff[k]
		a.succOff[k+1] += a.succOff[k]
	}

	// Pass 2: fill payloads.
	for _, b := range r.Blocks {
		bid := BlockID(b.ID)
		pos := a.instrOff[bid]
		phis := uint32(0)
		counting := true
		for _, i := range b.Instrs {
			id := InstrID(i.ID)
			a.instrs[pos] = id
			pos++
			if counting && i.Op == OpPhi {
				phis++
			} else {
				counting = false
			}
			if i.Op.IsTerminator() {
				a.term[bid] = id
			}
			ao := a.argOff[id]
			for k, arg := range i.Args {
				a.args[ao+uint32(k)] = InstrID(arg.ID)
			}
			uo := a.useOff[id]
			for k, u := range i.uses {
				a.uses[uo+uint32(k)] = InstrID(u.ID)
			}
		}
		a.phiEnd[bid] = phis
		for _, e := range b.Preds {
			eid := a.predOff[bid] + uint32(e.inIndex)
			a.edgeFrom[eid] = BlockID(e.From.ID)
			a.edgeTo[eid] = bid
		}
	}
	for _, b := range r.Blocks {
		bid := BlockID(b.ID)
		so := a.succOff[bid]
		for k, e := range b.Succs {
			a.succEdge[so+uint32(k)] = a.predOff[e.To.ID] + uint32(e.inIndex)
		}
	}
	return a
}

// NumInstrIDs returns the instruction id-space size (holes included).
func (a *Arena) NumInstrIDs() int { return a.numInstrIDs }

// NumBlockIDs returns the block id-space size.
func (a *Arena) NumBlockIDs() int { return a.numBlockIDs }

// NumEdges returns the number of CFG edges (the EdgeID space size).
func (a *Arena) NumEdges() int { return a.numEdges }

// Op returns the opcode of instruction i (OpInvalid for holes).
//
//pgvn:hotpath
func (a *Arena) Op(i InstrID) Op { return a.op[i] }

// BlockOf returns the block containing instruction i (NoBlock for
// holes and detached instructions).
//
//pgvn:hotpath
func (a *Arena) BlockOf(i InstrID) BlockID { return a.blockOf[i] }

// ArgIDs returns instruction i's operand ids. The slice aliases the
// arena pool; callers must not modify it.
//
//pgvn:hotpath
func (a *Arena) ArgIDs(i InstrID) []InstrID { return a.args[a.argOff[i]:a.argOff[i+1]] }

// Arg returns instruction i's k'th operand id.
//
//pgvn:hotpath
func (a *Arena) Arg(i InstrID, k int) InstrID { return a.args[a.argOff[i]+uint32(k)] }

// UseIDs returns the ids of the instructions using value i (one entry
// per argument slot). The slice aliases the arena pool.
//
//pgvn:hotpath
func (a *Arena) UseIDs(i InstrID) []InstrID { return a.uses[a.useOff[i]:a.useOff[i+1]] }

// InstrIDsOf returns block b's instruction ids in execution order. The
// slice aliases the arena pool.
//
//pgvn:hotpath
func (a *Arena) InstrIDsOf(b BlockID) []InstrID { return a.instrs[a.instrOff[b]:a.instrOff[b+1]] }

// PhiIDsOf returns block b's leading φ-instruction ids.
//
//pgvn:hotpath
func (a *Arena) PhiIDsOf(b BlockID) []InstrID {
	off := a.instrOff[b]
	return a.instrs[off : off+a.phiEnd[b]]
}

// TermOf returns block b's terminator instruction id, or NoInstr.
//
//pgvn:hotpath
func (a *Arena) TermOf(b BlockID) InstrID { return a.term[b] }

// PredStart returns the first EdgeID entering block b; the block's
// incoming edges are [PredStart(b), PredEnd(b)) in predecessor order,
// so PredStart(b)+k is the edge occupying φ-argument slot k.
//
//pgvn:hotpath
func (a *Arena) PredStart(b BlockID) EdgeID { return a.predOff[b] }

// PredEnd returns one past the last EdgeID entering block b.
//
//pgvn:hotpath
func (a *Arena) PredEnd(b BlockID) EdgeID { return a.predOff[b+1] }

// SuccEdgeIDs returns the EdgeIDs leaving block b in successor order
// (index k is the edge at From.Succs[k]). The slice aliases the pool.
//
//pgvn:hotpath
func (a *Arena) SuccEdgeIDs(b BlockID) []EdgeID { return a.succEdge[a.succOff[b]:a.succOff[b+1]] }

// EdgeFrom returns the originating block of edge e.
//
//pgvn:hotpath
func (a *Arena) EdgeFrom(e EdgeID) BlockID { return a.edgeFrom[e] }

// EdgeTo returns the destination block of edge e.
//
//pgvn:hotpath
func (a *Arena) EdgeTo(e EdgeID) BlockID { return a.edgeTo[e] }

// EdgeInIndex returns the index of edge e within its destination's
// predecessors (the φ-argument slot it feeds).
//
//pgvn:hotpath
func (a *Arena) EdgeInIndex(e EdgeID) int { return int(e - a.predOff[a.edgeTo[e]]) }

// BlockPtr returns the pointer-API block for id b (nil for holes).
//
//pgvn:hotpath
func (a *Arena) BlockPtr(b BlockID) *Block { return a.blockPtr[b] }

// InstrPtrs returns the id-indexed instruction pointer table (nil for
// holes). The slice is shared with the arena; callers must not modify
// it.
func (a *Arena) InstrPtrs() []*Instr { return a.instrPtr }

// EdgePtr returns the pointer-API edge for id e.
func (a *Arena) EdgePtr(e EdgeID) *Edge {
	to := a.blockPtr[a.edgeTo[e]]
	return to.Preds[a.EdgeInIndex(e)]
}

// ConstOf returns the OpConst constant of instruction i. Constants are
// read through the pointer boundary (not snapshotted) because passes
// patch Instr.Const in place.
//
//pgvn:hotpath
func (a *Arena) ConstOf(i InstrID) int64 { return a.instrPtr[i].Const }

// NameOf returns instruction i's name (callee for OpCall).
//
//pgvn:hotpath
func (a *Arena) NameOf(i InstrID) string { return a.instrPtr[i].Name }

// CasesOf returns the switch case constants of instruction i.
//
//pgvn:hotpath
func (a *Arena) CasesOf(i InstrID) []int64 { return a.blockPtr[a.blockOf[i]].Cases }
