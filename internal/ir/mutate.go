package ir

// RetargetEdge redirects edge e to point at newTo: the edge keeps its
// position in e.From.Succs (so branch/switch target order is preserved),
// leaves the old destination's predecessor list (deleting the
// corresponding φ argument slots) and is appended to newTo's predecessors
// (existing φs in newTo gain a nil argument slot the caller must fill).
func (r *Routine) RetargetEdge(e *Edge, newTo *Block) {
	old := e.To
	for _, phi := range old.Phis() {
		if phi.Args[e.inIndex] != nil {
			phi.RemoveArg(e.inIndex)
		} else {
			phi.Args = append(phi.Args[:e.inIndex], phi.Args[e.inIndex+1:]...)
		}
	}
	old.Preds = append(old.Preds[:e.inIndex], old.Preds[e.inIndex+1:]...)
	for k := e.inIndex; k < len(old.Preds); k++ {
		old.Preds[k].inIndex = k
	}
	e.To = newTo
	e.inIndex = len(newTo.Preds)
	newTo.Preds = append(newTo.Preds, e)
	for _, phi := range newTo.Phis() {
		phi.Args = append(phi.Args, nil)
	}
}

// SplitEdge interposes a new block on edge e: e is redirected to the new
// block (keeping its position in e.From.Succs, so branch/switch target
// order is preserved), and a fresh jump-terminated block takes over e's
// predecessor slot in the old destination. The φs of the destination keep
// their argument slots — the argument that used to flow along e now flows
// along the new block's jump — so, unlike RetargetEdge, no φ surgery is
// required. It returns the new block; the new block's single out-edge is
// its Succs[0].
func (r *Routine) SplitEdge(e *Edge) *Block {
	to := e.To
	s := r.NewBlock("")
	out := &Edge{From: s, To: to, outIndex: 0, inIndex: e.inIndex}
	to.Preds[e.inIndex] = out
	e.To = s
	e.inIndex = 0
	s.Preds = []*Edge{e}
	s.Succs = []*Edge{out}
	r.Append(s, OpJump)
	return s
}

// MergeBlocks merges block t into its unique predecessor p: p's
// terminator (which must be an unconditional jump to t) is deleted, t's
// instructions are appended to p, and t's outgoing edges become p's.
// t must have no φs (a single-predecessor block's φs should have been
// folded first).
func (r *Routine) MergeBlocks(p, t *Block) {
	if len(t.Preds) != 1 || t.Preds[0].From != p {
		panic("ir: MergeBlocks: t's unique predecessor is not p")
	}
	if len(p.Succs) != 1 || p.Succs[0].To != t {
		panic("ir: MergeBlocks: p's unique successor is not t")
	}
	if len(t.Phis()) > 0 {
		panic("ir: MergeBlocks: t still has φs")
	}
	term := p.Terminator()
	if term == nil || term.Op != OpJump {
		panic("ir: MergeBlocks: p does not end in a jump")
	}
	r.RemoveEdge(p.Succs[0])
	r.RemoveInstr(term)
	for _, i := range t.Instrs {
		i.Block = p
	}
	p.Instrs = append(p.Instrs, t.Instrs...)
	t.Instrs = nil
	// t's terminator is p's now, and its switch cases with it.
	p.Cases, t.Cases = t.Cases, nil
	// t's outgoing edges become p's (same order).
	p.Succs = append(p.Succs, t.Succs...)
	for k, e := range p.Succs {
		e.From = p
		e.outIndex = k
	}
	t.Succs = nil
	r.RemoveBlock(t)
}
