package ir

// Clone returns a deep copy of the routine: fresh blocks, edges and
// instructions with identical IDs, names, constants and structure. The
// benchmark harness uses it to run several GVN configurations on identical
// inputs.
//
// Old→new correspondence lives in tables indexed by Instr.ID and Block.ID
// under the identity test Verify uses, so an argument that is not a member
// of r — foreign, or with an id outside [0, NumInstrIDs()) or shared with
// another member — clones to nil. The new objects and every
// Instrs/Args/uses/Succs/Preds/Cases/Params backing array are carved from
// a few counted slabs; every carve is a full slice expression (cap ==
// len), so a later append on one object reallocates instead of writing
// into its neighbour's storage.
func (r *Routine) Clone() *Routine {
	nInstrs, nPtrs, nSuccs, nPreds, nCases := 0, len(r.Params), 0, 0, 0
	for _, b := range r.Blocks {
		nInstrs += len(b.Instrs)
		nSuccs += len(b.Succs)
		nPreds += len(b.Preds)
		nCases += len(b.Cases)
		for _, i := range b.Instrs {
			nPtrs += len(i.Args) + len(i.uses)
		}
	}
	nPtrs += nInstrs

	nr := &Routine{
		Name:        r.Name,
		nextInstrID: r.nextInstrID,
		nextBlockID: r.nextBlockID,
	}
	blocks := make([]Block, len(r.Blocks))
	instrs := make([]Instr, nInstrs)
	edges := make([]Edge, 0, nSuccs)
	ptrs := make([]*Instr, nPtrs)
	edgePtrs := make([]*Edge, nSuccs+nPreds)
	var cases []int64
	if nCases > 0 {
		cases = make([]int64, nCases)
	}
	// carve hands out the next n instruction pointers as a full slice.
	carve := func(n int) []*Instr {
		s := ptrs[:n:n]
		ptrs = ptrs[n:]
		return s
	}
	carveEdges := func(n int) []*Edge {
		s := edgePtrs[:n:n]
		edgePtrs = edgePtrs[n:]
		return s
	}

	type blockPair struct{ old, new *Block }
	type instrPair struct{ old, new *Instr }
	blockOf := make([]blockPair, r.nextBlockID)
	instrOf := make([]instrPair, r.nextInstrID)
	mapBlock := func(b *Block) *Block {
		if b != nil && b.ID >= 0 && b.ID < len(blockOf) && blockOf[b.ID].old == b {
			return blockOf[b.ID].new
		}
		return nil
	}
	mapInstr := func(i *Instr) *Instr {
		if i != nil && i.ID >= 0 && i.ID < len(instrOf) && instrOf[i.ID].old == i {
			return instrOf[i.ID].new
		}
		return nil
	}

	nr.Blocks = make([]*Block, len(r.Blocks))
	next := 0
	for k, b := range r.Blocks {
		nb := &blocks[k]
		*nb = Block{ID: b.ID, Name: b.Name, Routine: nr}
		nr.Blocks[k] = nb
		if b.ID >= 0 && b.ID < len(blockOf) {
			blockOf[b.ID] = blockPair{b, nb}
		}
		if n := len(b.Cases); n > 0 {
			nb.Cases = cases[:n:n]
			cases = cases[n:]
			copy(nb.Cases, b.Cases)
		}
		if len(b.Instrs) > 0 {
			nb.Instrs = carve(len(b.Instrs))
		}
		for x, i := range b.Instrs {
			ni := &instrs[next]
			next++
			*ni = Instr{
				ID:    i.ID,
				Op:    i.Op,
				Block: nb,
				Const: i.Const,
				Name:  i.Name,
			}
			if n := len(i.uses); n > 0 {
				ni.uses = carve(n)[:0]
			}
			nb.Instrs[x] = ni
			if i.ID >= 0 && i.ID < len(instrOf) {
				instrOf[i.ID] = instrPair{i, ni}
			}
		}
	}
	// Wire arguments and use lists, in the same block/instruction/argument
	// order as the source so use lists come out in that order too.
	for k, b := range r.Blocks {
		for x, i := range b.Instrs {
			if len(i.Args) == 0 {
				continue
			}
			ni := nr.Blocks[k].Instrs[x]
			ni.Args = carve(len(i.Args))
			for y, a := range i.Args {
				na := mapInstr(a)
				ni.Args[y] = na
				if na != nil {
					na.addUse(ni)
				}
			}
		}
	}
	// Wire edges.
	for k, b := range r.Blocks {
		nb := nr.Blocks[k]
		nb.Succs = carveEdges(len(b.Succs))
		for x, e := range b.Succs {
			edges = append(edges, Edge{
				From:     nb,
				To:       mapBlock(e.To),
				outIndex: e.outIndex,
				inIndex:  e.inIndex,
			})
			nb.Succs[x] = &edges[len(edges)-1]
		}
	}
	for k, b := range r.Blocks {
		nb := nr.Blocks[k]
		nb.Preds = carveEdges(len(b.Preds))
		for x, e := range b.Preds {
			nb.Preds[x] = mapBlock(e.From).Succs[e.outIndex]
		}
	}
	if len(r.Params) > 0 {
		nr.Params = carve(len(r.Params))
		for k, p := range r.Params {
			nr.Params[k] = mapInstr(p)
		}
	}
	return nr
}
