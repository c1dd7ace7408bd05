package ir

import "pgvn/internal/slab"

// SSAPlan is a complete SSA construction over a routine in variable
// form, computed read-only by package ssa: which φs to place, what each
// φ argument and each VarRead resolves to, which values take a
// variable-derived name, and whether an undefined read needs a constant
// 0. MaterializeSSA realizes a plan as a fresh routine holding only the
// surviving instructions; ApplySSA realizes it in place. Both give the
// same ids, names, block and instruction order, NumInstrIDs and use
// lists.
//
// A plan names values by id. With base the source's NumInstrIDs(), ids
// below base are the source's instructions, base+k is the k'th placed
// φ, and base+len(PhiBlock) is the undefined-read constant when Undef
// is set.
type SSAPlan struct {
	// PhiBlock is the block of each placed φ, in placement order. A
	// block's placed φs follow any φ it already had, in this order.
	PhiBlock []*Block
	// PhiName is each placed φ's name.
	PhiName []string
	// PhiArgs holds the placed φs' arguments as value ids: φ after φ in
	// placement order, one per predecessor slot of the φ's block.
	PhiArgs []int32
	// Read is indexed by source instruction id: for a VarRead, the id
	// of the value it reads, never itself a VarRead's; -1 otherwise.
	Read []int32
	// Renames lists the source values that take a new name.
	Renames []SSARename
	// Undef reports whether a constant 0 named "undef0" is placed right
	// after the parameters in the entry block.
	Undef bool
}

// SSARename gives the source instruction with id ID the name Name.
type SSARename struct {
	ID   int32
	Name string
}

// isVarOp reports whether op is a variable pseudo-instruction, which
// SSA construction drops.
func isVarOp(op Op) bool { return op == OpVarRead || op == OpVarWrite }

// ssaLayout is the shape of a plan's result that both materializers
// walk: the placed φs grouped by block and where each φ's arguments
// start in PhiArgs.
type ssaLayout struct {
	numIDs   int     // NumInstrIDs of the result
	undefID  int32   // id of the undefined-read constant, or -1
	phiStart []int32 // by block id, len NumBlockIDs()+2: block b's φs are phiOrder[phiStart[b]:phiStart[b+1]]
	phiOrder []int32 // placed φ indices grouped by block, placement order within one
	argStart []int32 // by placed φ index: offset of its arguments in PhiArgs
}

// layoutSSA computes p's layout over r in buf, which must hold
// NumBlockIDs()+2+2*len(p.PhiBlock) entries; it returns the rest of buf.
func (r *Routine) layoutSSA(p *SSAPlan, buf []int32) (ssaLayout, []int32) {
	nb, nphi := r.nextBlockID, len(p.PhiBlock)
	l := ssaLayout{numIDs: r.nextInstrID + nphi, undefID: -1}
	if p.Undef {
		l.undefID = int32(l.numIDs)
		l.numIDs++
	}
	l.phiStart, buf = buf[:nb+2:nb+2], buf[nb+2:]
	l.phiOrder, buf = buf[:nphi:nphi], buf[nphi:]
	l.argStart, buf = buf[:nphi:nphi], buf[nphi:]
	// Counting sort by block id: count into phiStart[b+2], prefix-sum,
	// then place with phiStart[b+1] as the cursor, which leaves it at
	// the start of block b+1.
	clear(l.phiStart)
	for _, b := range p.PhiBlock {
		l.phiStart[b.ID+2]++
	}
	for k := 2; k < len(l.phiStart); k++ {
		l.phiStart[k] += l.phiStart[k-1]
	}
	off := int32(0)
	for k, b := range p.PhiBlock {
		l.phiOrder[l.phiStart[b.ID+1]] = int32(k)
		l.phiStart[b.ID+1]++
		l.argStart[k] = off
		off += int32(len(b.Preds))
	}
	return l, buf
}

// phisOf returns the indices of the φs placed in block b.
func (l *ssaLayout) phisOf(b *Block) []int32 {
	return l.phiOrder[l.phiStart[b.ID]:l.phiStart[b.ID+1]]
}

// eachOut calls f for every instruction block b holds in the result, in
// order: a surviving source instruction i as f(i, -1), the k'th placed φ
// as f(nil, k) and the undefined-read constant as f(nil, -1). Placed φs
// follow the block's own φs, and the constant follows the parameters.
func (l *ssaLayout) eachOut(r *Routine, b *Block, f func(i *Instr, phi int32)) {
	nOld := len(b.Phis())
	undef := l.undefID >= 0 && b == r.Entry()
	for x := 0; x <= len(b.Instrs); x++ {
		if x == nOld {
			for _, k := range l.phisOf(b) {
				f(nil, k)
			}
		}
		if undef && x == len(r.Params) {
			f(nil, -1)
		}
		if x < len(b.Instrs) && !isVarOp(b.Instrs[x].Op) {
			f(b.Instrs[x], -1)
		}
	}
}

// numOut returns how many instructions block b holds in the result.
func (l *ssaLayout) numOut(r *Routine, b *Block) int {
	n := 0
	l.eachOut(r, b, func(*Instr, int32) { n++ })
	return n
}

// readValue returns the id of the value argument a stands for under p.
func readValue(p *SSAPlan, a *Instr) int32 {
	if a.Op == OpVarRead {
		return p.Read[a.ID]
	}
	return int32(a.ID)
}

// ssaStore is the storage MaterializeSSA carves one routine from: its
// blocks, instructions, instruction-pointer slots (arguments, use lists,
// block instruction lists, parameters), edges, edge-pointer slots, switch
// cases and block list. Each table is taken once per routine, so a store
// that served a large routine keeps that capacity for the next one.
type ssaStore struct {
	blocks   slab.Table[Block]
	instrs   slab.Table[Instr]
	ptrs     slab.Table[*Instr]
	edges    slab.Table[Edge]
	edgePtrs slab.Table[*Edge]
	cases    slab.Table[int64]
	blockPtr slab.Table[*Block]
	home     *Scratch // where Release hands the store back; nil drops it
}

// Release declares r finished and hands the storage MaterializeSSA
// carved it from, cleared, back to the Scratch it came from, for the
// next MaterializeSSA. Every field of r is dropped, so using r afterwards
// panics rather than read recycled memory; nothing that points into r
// (its blocks, instructions and edges, a core.Result over it) may be used
// either. Release is a no-op for a routine MaterializeSSA did not build,
// such as a parsed or cloned one.
func (r *Routine) Release() {
	st := r.store
	if st == nil {
		return
	}
	*r = Routine{}
	if st.home == nil {
		return
	}
	st.blocks.Reset()
	st.instrs.Reset()
	st.ptrs.Reset()
	st.edges.Reset()
	st.edgePtrs.Reset()
	st.cases.Reset()
	st.blockPtr.Reset()
	st.home.store = st
}

// MaterializeSSA returns the SSA form p describes for r as a new
// routine; r is not modified and shares no instruction, block, edge or
// backing array with the result. Only surviving instructions are
// allocated: VarRead and VarWrite are never copied. As in Clone, the new
// objects and every backing array are carved from a few counted tables,
// each carve a full slice (cap == len); the tables come from the storage
// s lends the routine until its Release (nil allocates them). Use lists
// come out in block/instruction/argument order.
func (r *Routine) MaterializeSSA(p *SSAPlan, s *Scratch) *Routine {
	nphi := len(p.PhiBlock)
	nInstrs, nArgs, nSuccs, nPreds, nCases := nphi, len(p.PhiArgs), 0, 0, 0
	if p.Undef {
		nInstrs++
	}
	for _, b := range r.Blocks {
		nSuccs += len(b.Succs)
		nPreds += len(b.Preds)
		nCases += len(b.Cases)
		for _, i := range b.Instrs {
			if !isVarOp(i.Op) {
				nInstrs++
				nArgs += len(i.Args)
			}
		}
	}
	// Every argument is one use, so Args and use lists take nArgs
	// pointers each.
	nPtrs := nInstrs + 2*nArgs + len(r.Params)
	home, s := s, s.orNew()
	l, ints := r.layoutSSA(p, s.ints.Take(r.nextBlockID+2+2*nphi+r.nextInstrID+nphi+1+nArgs))
	useCount := ints[:l.numIDs:l.numIDs] // uses per value id
	argIDs := ints[l.numIDs:][:0:nArgs]  // argument value ids in result order

	st := s.store
	if st == nil {
		st = &ssaStore{home: home}
	}
	s.store = nil
	nr := &Routine{Name: r.Name, nextInstrID: l.numIDs, nextBlockID: r.nextBlockID, store: st}
	blocks := st.blocks.Take(len(r.Blocks))
	instrs := st.instrs.Take(nInstrs)
	ptrs := st.ptrs.Take(nPtrs)
	edges := st.edges.Take(nSuccs)[:0]
	edgePtrs := st.edgePtrs.Take(nSuccs + nPreds)
	cases := st.cases.Take(nCases)
	newOf := s.instrs.Take(l.numIDs)        // result instruction by id
	blockOf := s.blocks.Take(r.nextBlockID) // result block by id
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
	next := 0
	// emit appends a result instruction with nargs argument slots to nb.
	emit := func(nb *Block, id int, op Op, name string, c int64, nargs int) {
		ni := &instrs[next]
		next++
		*ni = Instr{ID: id, Op: op, Block: nb, Const: c, Name: name}
		if nargs > 0 {
			ni.Args = carve(nargs)
		}
		nb.Instrs = append(nb.Instrs, ni)
		newOf[id] = ni
	}
	use := func(v int32) {
		argIDs = append(argIDs, v)
		useCount[v]++
	}

	// Pass 1: blocks and instructions in result order, recording every
	// argument's value id and counting uses.
	nr.Blocks = st.blockPtr.Take(len(r.Blocks))
	base := r.nextInstrID
	for k, b := range r.Blocks {
		nb := &blocks[k]
		*nb = Block{ID: b.ID, Name: b.Name, Routine: nr}
		nr.Blocks[k] = nb
		blockOf[b.ID] = nb
		if n := len(b.Cases); n > 0 {
			nb.Cases = cases[:n:n]
			cases = cases[n:]
			copy(nb.Cases, b.Cases)
		}
		if n := l.numOut(r, b); n > 0 {
			nb.Instrs = carve(n)[:0]
		}
		l.eachOut(r, b, func(i *Instr, f int32) {
			switch {
			case i != nil:
				emit(nb, i.ID, i.Op, i.Name, i.Const, len(i.Args))
				for _, a := range i.Args {
					use(readValue(p, a))
				}
			case f >= 0:
				emit(nb, base+int(f), OpPhi, p.PhiName[f], 0, len(b.Preds))
				for _, v := range p.PhiArgs[l.argStart[f]:][:len(b.Preds)] {
					use(v)
				}
			default:
				emit(nb, int(l.undefID), OpConst, "undef0", 0, 0)
			}
		})
	}
	for id, ni := range newOf {
		if n := int(useCount[id]); n > 0 {
			ni.uses = carve(n)[:0]
		}
	}
	// Pass 2: wire arguments and use lists in result order.
	x := 0
	for _, nb := range nr.Blocks {
		for _, ni := range nb.Instrs {
			for y := range ni.Args {
				a := newOf[argIDs[x]]
				x++
				ni.Args[y] = a
				a.uses = append(a.uses, ni)
			}
		}
	}
	for _, rn := range p.Renames {
		newOf[rn.ID].Name = rn.Name
	}
	// Edges, exactly as Clone wires them.
	for k, b := range r.Blocks {
		nb := nr.Blocks[k]
		nb.Succs = carveEdges(len(b.Succs))
		for y, e := range b.Succs {
			edges = append(edges, Edge{From: nb, To: blockOf[e.To.ID], outIndex: e.outIndex, inIndex: e.inIndex})
			nb.Succs[y] = &edges[len(edges)-1]
		}
	}
	for k, b := range r.Blocks {
		nb := nr.Blocks[k]
		nb.Preds = carveEdges(len(b.Preds))
		for y, e := range b.Preds {
			nb.Preds[y] = blockOf[e.From.ID].Succs[e.outIndex]
		}
	}
	if len(r.Params) > 0 {
		nr.Params = carve(len(r.Params))
		for k, prm := range r.Params {
			nr.Params[k] = newOf[prm.ID]
		}
	}
	return nr
}

// ApplySSA realizes p on r in place: blocks, edges and every surviving
// instruction keep their identity, placed φs and the undefined-read
// constant are carved from r's chunks, and the pseudo-instructions are
// detached. Use lists are rebuilt in block/instruction/argument order,
// so r ends up equal to MaterializeSSA's result in every observable
// respect. Its id tables come from s (nil allocates them).
func (r *Routine) ApplySSA(p *SSAPlan, s *Scratch) {
	s = s.orNew()
	l, _ := r.layoutSSA(p, s.ints.Take(r.nextBlockID+2+2*len(p.PhiBlock)))
	base := r.nextInstrID
	byID := s.instrs.Take(l.numIDs) // value by id
	for _, b := range r.Blocks {
		for _, i := range b.Instrs {
			byID[i.ID] = i
		}
	}
	for k, b := range p.PhiBlock {
		phi := r.newInstr(OpPhi) // id base+k
		phi.Block, phi.Name = b, p.PhiName[k]
		if len(b.Preds) > 0 {
			phi.Args = r.carveArgs(len(b.Preds))
		}
		byID[phi.ID] = phi
	}
	if p.Undef {
		u := r.newInstr(OpConst)
		u.Block, u.Name = r.Entry(), "undef0"
		byID[u.ID] = u
	}
	for k, b := range p.PhiBlock {
		phi := byID[base+k]
		for s, v := range p.PhiArgs[l.argStart[k]:][:len(b.Preds)] {
			phi.Args[s] = byID[v]
		}
	}
	// Instruction lists in result order. The pseudo-instructions are
	// detached first; a block that gains nothing is compacted in place,
	// which eachOut allows because it reads each source position before
	// the compacted list can reach it.
	for _, b := range r.Blocks {
		for _, i := range b.Instrs {
			if isVarOp(i.Op) {
				i.Block, i.Args, i.uses = nil, nil, nil
			}
		}
		old := b.Instrs
		out := old[:0]
		grows := len(l.phisOf(b)) > 0 || (l.undefID >= 0 && b == r.Entry())
		if grows {
			out = make([]*Instr, 0, l.numOut(r, b))
		}
		l.eachOut(r, b, func(i *Instr, f int32) {
			switch {
			case i != nil:
				for y, a := range i.Args {
					i.Args[y] = byID[readValue(p, a)]
				}
				out = append(out, i)
			case f >= 0:
				out = append(out, byID[base+int(f)])
			default:
				out = append(out, byID[l.undefID])
			}
		})
		if !grows {
			clear(old[len(out):])
		}
		b.Instrs = out
	}
	for _, b := range r.Blocks {
		for _, i := range b.Instrs {
			clear(i.uses)
			i.uses = i.uses[:0]
		}
	}
	for _, b := range r.Blocks {
		for _, i := range b.Instrs {
			for _, a := range i.Args {
				a.uses = append(a.uses, i)
			}
		}
	}
	for _, rn := range p.Renames {
		byID[rn.ID].Name = rn.Name
	}
}
