// Package pre implements GVN-PRE: partial redundancy elimination driven
// by the value partition of the predicated global value numbering core.
//
// Classic dominator-based elimination (opt.EliminateRedundancies) removes
// a computation only when a congruent computation dominates it. PRE
// removes the remaining class of redundancies: a value class computed on
// some — but not all — paths into a merge. The pass computes per-block
// availability (AVAIL_OUT, forward) and anticipability (ANTIC_IN,
// backward) dataflow over dense class ids from core.Partition, inserts
// the missing evaluations on the unavailable predecessor edges (splitting
// critical edges when the predecessor has other successors), and replaces
// the partially redundant computations at or below the merge with a φ
// over the now-fully-available copies.
//
// Because every value op in this IR is pure and total (x/0 == 0 by
// convention), an inserted evaluation can never trap; anticipability
// guarantees no path acquires a computation it did not already perform.
// Placement is predicate-aware: a merge is only transformed when every
// incoming edge is analysis-reachable and, when φ-predication computed a
// block predicate, listed in its CANONICAL reachable-edge order — so
// insertions never land on edges the paper's predication facts exclude.
//
// Merges with an incoming back edge are left alone: hoisting across a
// loop boundary would need φ-translation of the class expression through
// the header φs to stay sound (see DESIGN §15); all-forward merges are
// exactly the diamonds and cross-joins the partial-redundancy workload
// family exercises.
package pre

import (
	"math/bits"

	"pgvn/internal/cfg"
	"pgvn/internal/core"
	"pgvn/internal/dom"
	"pgvn/internal/ir"
	"pgvn/internal/obs"
)

// Options configures a PRE run.
type Options struct {
	// Tracer, when non-nil, receives one event per insertion, φ
	// creation, replacement and edge split.
	Tracer *obs.Tracer
}

// Stats reports what Run changed.
type Stats struct {
	// Candidates counts value classes that were partially (or wholly)
	// available at a merge and considered for transformation.
	Candidates int
	// Insertions counts evaluations inserted on predecessor edges.
	Insertions int
	// Removals counts partially redundant computations whose uses were
	// redirected to a merge φ.
	Removals int
	// EdgeSplits counts critical edges split to make room for an
	// insertion.
	EdgeSplits int
	// Phis counts merge φs created over the available copies.
	Phis int
}

// predFlags is the per-predecessor-slot placement verdict, captured
// before the pass mutates the CFG (edge splits keep slots stable).
type predFlags struct {
	back bool // slot arrives via a back edge
	ok   bool // analysis-reachable and in the φ-predication CANONICAL order
}

type pass struct {
	res   *core.Result
	r     *ir.Routine
	part  *core.Partition
	order *cfg.Order
	tree  *dom.Tree
	nblk  int // block-ID bound when tree was built
	tr    *obs.Tracer

	availOut []bitset // by block ID; path availability of each class
	anticIn  []bitset // by block ID; anticipability of each class
	work     bitset   // processMerge candidate scratch, zeroed per merge

	extra       map[core.ClassID][]*ir.Instr // members created by this pass
	created     map[*ir.Instr]bool           // set view of extra
	createdCls  bitset                       // classes with a pass-created member
	splitOrigin map[*ir.Block]*ir.Block      // split block -> original predecessor
	consts      map[int64]*ir.Instr
	stats       Stats
}

// Run applies GVN-PRE to the analyzed routine in place. It is intended to
// run after dominator-based elimination (so only genuinely partial
// redundancies remain) and before dead-code elimination (which collects
// the replaced computations and any speculative φ that found no use).
func Run(res *core.Result, opts Options) (Stats, error) {
	// The bookkeeping maps (extra, created, splitOrigin, consts) are
	// allocated lazily at their first write: most routines have no
	// transformable redundancy, and nil maps read as empty.
	//
	// The RPO, the partition snapshot and the dominator tree are
	// construction-local to this call: for a RunIn Result they are built
	// in its workspace, which keeps batch runs (one PRE pass per
	// routine) off the allocator.
	ws := res.Workspace()
	p := &pass{
		res:   res,
		r:     res.Routine,
		part:  res.Partition(),
		order: cfg.ReversePostOrderIn(ws.Order(), res.Routine),
		tr:    opts.Tracer,
	}
	if p.part.NumClasses() == 0 {
		return p.stats, nil
	}
	p.createdCls = newBitset(p.part.NumClasses())
	merges, flags := p.mergeSites()
	if len(merges) == 0 {
		return p.stats, nil
	}
	p.tree = dom.NewIn(ws.Dom(), p.r)
	p.nblk = p.r.NumBlockIDs()
	p.dataflow()
	for i, b := range merges {
		p.processMerge(b, flags[i])
	}
	return p.stats, nil
}

// mergeSites collects the transformable merge blocks and the
// per-predecessor placement flags, before any mutation.
// flags[i] holds the verdicts for merges[i], carved from one counted
// backing allocation.
func (p *pass) mergeSites() ([]*ir.Block, [][]predFlags) {
	nm, total := 0, 0
	for _, b := range p.order.Blocks {
		if len(b.Preds) >= 2 {
			nm++
			total += len(b.Preds)
		}
	}
	if nm == 0 {
		return nil, nil
	}
	merges := make([]*ir.Block, 0, nm)
	flags := make([][]predFlags, 0, nm)
	all := make([]predFlags, 0, total)
	for _, b := range p.order.Blocks {
		if len(b.Preds) < 2 {
			continue
		}
		_, canon := p.res.PredicateInfo(b)
		inCanon := func(e *ir.Edge) bool {
			if canon == nil {
				return true
			}
			for _, ce := range canon {
				if ce == e {
					return true
				}
			}
			return false
		}
		start := len(all)
		for _, e := range b.Preds {
			all = append(all, predFlags{
				back: p.order.IsBackEdge(e),
				ok:   p.res.EdgeReachable(e) && inCanon(e),
			})
		}
		merges = append(merges, b)
		flags = append(flags, all[start:len(all):len(all)])
	}
	return merges, flags
}

// dataflow computes AVAIL_OUT (forward, meet = intersection over
// predecessors, gen = classes defined in the block) and ANTIC_IN
// (backward, meet = intersection over successors, gen = classes with an
// insertable evaluation in the block) as bitsets over dense class ids.
// Both start optimistic (all-ones) and iterate to the greatest fixpoint.
func (p *pass) dataflow() {
	nc := p.part.NumClasses()
	nb := p.nblk
	defs := make([]bitset, nb)
	gen := make([]bitset, nb)
	p.availOut = make([]bitset, nb)
	p.anticIn = make([]bitset, nb)
	// All per-block vectors (plus the meet scratch) are carved from one
	// counted words allocation: four bitsets per reachable block, each
	// (nc+63)/64 words. Statically unreachable blocks keep zero-value
	// bitsets, exactly as before.
	ww := (nc + 63) / 64
	backing := make([]uint64, (4*len(p.order.Blocks)+2)*ww)
	carve := func() bitset {
		s := bitset{n: nc, words: backing[:ww:ww]}
		backing = backing[ww:]
		return s
	}
	for _, b := range p.order.Blocks {
		defs[b.ID] = carve()
		gen[b.ID] = carve()
		for _, i := range b.Instrs {
			c := p.part.ClassOf(i)
			if c == core.NoClass {
				continue
			}
			defs[b.ID].set(int(c))
			if insertable(i.Op) {
				gen[b.ID].set(int(c))
			}
		}
	}
	entry := p.r.Entry()
	for _, b := range p.order.Blocks {
		p.availOut[b.ID] = carve()
		p.anticIn[b.ID] = carve()
		if b != entry {
			p.availOut[b.ID].fill()
		} else {
			p.availOut[b.ID].copyFrom(defs[b.ID])
		}
		if len(b.Succs) > 0 {
			p.anticIn[b.ID].fill()
		} else {
			p.anticIn[b.ID].copyFrom(gen[b.ID])
		}
	}
	p.work = carve()
	tmp := carve()
	for changed := true; changed; {
		changed = false
		for _, b := range p.order.Blocks {
			if b == entry {
				continue
			}
			tmp.fill()
			for _, e := range b.Preds {
				if p.order.Reachable(e.From) {
					tmp.intersect(p.availOut[e.From.ID])
				}
			}
			tmp.union(defs[b.ID])
			if !tmp.equal(p.availOut[b.ID]) {
				p.availOut[b.ID].copyFrom(tmp)
				changed = true
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for k := len(p.order.Blocks) - 1; k >= 0; k-- {
			b := p.order.Blocks[k]
			if len(b.Succs) == 0 {
				continue
			}
			tmp.fill()
			for _, e := range b.Succs {
				tmp.intersect(p.anticIn[e.To.ID])
			}
			tmp.union(gen[b.ID])
			if !tmp.equal(p.anticIn[b.ID]) {
				p.anticIn[b.ID].copyFrom(tmp)
				changed = true
			}
		}
	}
}

// insertable reports whether op is an evaluation PRE may materialize on
// an edge: a pure computation over operands, not a name (const, param),
// not a copy (its class already contains the copied value) and not a φ.
func insertable(op ir.Op) bool {
	switch op {
	case ir.OpNeg, ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpMod,
		ir.OpEq, ir.OpNe, ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe, ir.OpCall:
		return true
	}
	return false
}

// dominates extends the pass-entry dominator tree over blocks created by
// edge splitting: a split block is dominated by exactly what dominates
// the predecessor it was split from (plus itself), and dominates nothing
// but itself.
func (p *pass) dominates(a, b *ir.Block) bool {
	for b != nil {
		if a == b {
			return true
		}
		if o := p.splitOrigin[b]; o != nil {
			b = o
			continue
		}
		if a.ID >= p.nblk || b.ID >= p.nblk || !p.tree.Contains(a) || !p.tree.Contains(b) {
			return false
		}
		return p.tree.Dominates(a, b)
	}
	return false
}

// availAt reports class c available at the end of block from — the
// dataflow must prove it path-available (an evaluation this pass inserted
// counts too) and a concrete member must dominate from to supply the
// value. Predecessors that are split blocks map back to the predecessor
// they were split from for the dataflow query.
func (p *pass) availAt(c core.ClassID, from *ir.Block) *ir.Instr {
	m := p.availableMember(c, from)
	if m == nil {
		return nil
	}
	orig := from
	for {
		o := p.splitOrigin[orig]
		if o == nil {
			break
		}
		orig = o
	}
	if !p.availOut[orig.ID].has(int(c)) && !p.created[m] {
		return nil
	}
	return m
}

// availableMember returns the member of class c whose definition
// dominates block at (so its value is the class's value there), checking
// the analysis members in ID order first, then members this pass created.
func (p *pass) availableMember(c core.ClassID, at *ir.Block) *ir.Instr {
	for _, m := range p.part.Members(c) {
		if m.Block != nil && m.Block.Routine == p.r && p.dominates(m.Block, at) {
			return m
		}
	}
	for _, m := range p.extra[c] {
		if m.Block != nil && p.dominates(m.Block, at) {
			return m
		}
	}
	return nil
}

// noteCreated records a pass-created member of class c, allocating the
// bookkeeping maps on first use.
func (p *pass) noteCreated(c core.ClassID, i *ir.Instr) {
	if p.extra == nil {
		p.extra = map[core.ClassID][]*ir.Instr{}
		p.created = map[*ir.Instr]bool{}
	}
	p.extra[c] = append(p.extra[c], i)
	p.created[i] = true
}

// members iterates the analysis members and the pass-created members of c.
func (p *pass) members(c core.ClassID) []*ir.Instr {
	ms := p.part.Members(c)
	if ex := p.extra[c]; len(ex) > 0 {
		ms = append(append([]*ir.Instr(nil), ms...), ex...)
	}
	return ms
}

// processMerge transforms every eligible class at merge block b.
func (p *pass) processMerge(b *ir.Block, flags []predFlags) {
	for _, f := range flags {
		if f.back || !f.ok {
			// Back edge: sound placement needs φ-translation (not
			// implemented; DESIGN §15). Unreachable or non-CANONICAL
			// edge: the predication facts exclude this edge, so
			// nothing may be inserted on it.
			return
		}
	}
	// A candidate class must be anticipated at the merge AND
	// path-available on at least one incoming edge (availAt can only
	// succeed via a predecessor's AVAIL_OUT bit or a member this pass
	// created earlier). Intersecting those bitsets up front skips the
	// overwhelming majority of classes word-by-word, without touching
	// the partition or the dominator tree — this filter is what keeps
	// the whole pass inside the driver's 1.15x overhead budget.
	work := p.work
	work.zero()
	for _, e := range b.Preds {
		if e.From.ID < p.nblk && p.order.Reachable(e.From) {
			work.union(p.availOut[e.From.ID])
		}
	}
	work.union(p.createdCls)
	work.intersect(p.anticIn[b.ID])
	work.forEach(func(c int) {
		p.processClass(core.ClassID(c), b)
	})
}

// processClass plans and, when fully resolvable, applies the
// transformation of class c at merge b.
func (p *pass) processClass(c core.ClassID, b *ir.Block) {
	if _, isConst := p.part.ConstValue(c); isConst {
		return // constant propagation's job
	}
	for _, m := range p.members(c) {
		if m.Op == ir.OpPhi && m.Block == b {
			return // the class is already merged at b
		}
		if m.Block != nil && m.Block.Routine == p.r && m.Block != b && p.dominates(m.Block, b) {
			return // fully available via one dominating member: Click's case
		}
	}
	// Per-slot availability: the dataflow must prove the class available
	// on the edge, and a concrete member must dominate the predecessor to
	// supply the φ argument.
	args := make([]*ir.Instr, len(b.Preds))
	avail := 0
	for k, e := range b.Preds {
		if m := p.availAt(c, e.From); m != nil {
			args[k] = m
			avail++
		}
	}
	if avail == 0 {
		return // no redundancy: insertion everywhere would be pure hoisting
	}
	p.stats.Candidates++
	// Collect the partially redundant computations: members at or below
	// the merge that still have uses.
	var replace []*ir.Instr
	for _, m := range p.members(c) {
		if m.Block != nil && m.Block.Routine == p.r && p.dominates(b, m.Block) && m.NumUses() > 0 {
			replace = append(replace, m)
		}
	}
	// Plan the insertions for the unavailable slots: an insertable
	// template member plus, per slot, one available value per template
	// operand. Abandon the candidate when anything is missing — the
	// transformation is all-or-nothing.
	type insertion struct {
		slot int
		args []*ir.Instr // nil entries are constants, see constArgs
		cs   []int64
	}
	var plan []insertion
	if avail < len(b.Preds) {
		tmpl := p.template(c)
		if tmpl == nil {
			return
		}
		for k, e := range b.Preds {
			if args[k] != nil {
				continue
			}
			ins := insertion{slot: k, cs: make([]int64, len(tmpl.Args))}
			for _, a := range tmpl.Args {
				ac := p.part.ClassOf(a)
				if ac == core.NoClass {
					return
				}
				if v, isConst := p.part.ConstValue(ac); isConst {
					ins.args = append(ins.args, nil)
					ins.cs[len(ins.args)-1] = v
					continue
				}
				am := p.availableMember(ac, e.From)
				if am == nil {
					return
				}
				ins.args = append(ins.args, am)
			}
			plan = append(plan, ins)
		}
		// Apply the insertions.
		for _, ins := range plan {
			e := b.Preds[ins.slot]
			target := e.From
			if len(target.Succs) > 1 {
				s := p.r.SplitEdge(e)
				if p.splitOrigin == nil {
					p.splitOrigin = map[*ir.Block]*ir.Block{}
				}
				p.splitOrigin[s] = target
				p.stats.EdgeSplits++
				p.emit(obs.KindOptPREEdgeSplit, s.ID, -1, int64(target.ID), "")
				target = s
			}
			iargs := make([]*ir.Instr, len(ins.args))
			for j, a := range ins.args {
				if a == nil {
					a = p.constFor(ins.cs[j])
				}
				iargs[j] = a
			}
			ni := p.r.InsertBefore(target.Terminator(), tmpl.Op, iargs...)
			if tmpl.Op == ir.OpCall {
				ni.Name = tmpl.Name // the callee
			}
			args[ins.slot] = ni
			p.noteCreated(c, ni)
			p.createdCls.set(int(c))
			p.stats.Insertions++
			p.emit(obs.KindOptPREInsert, target.ID, ni.ID, int64(tmpl.ID), p.exprKey(c))
		}
	}
	// The class is now available on every edge: merge with a φ and
	// redirect the partially redundant computations to it.
	phi := p.r.InsertPhi(b)
	for k, a := range args {
		phi.SetArg(k, a)
	}
	p.noteCreated(c, phi)
	p.createdCls.set(int(c))
	p.stats.Phis++
	p.emit(obs.KindOptPREPhi, b.ID, phi.ID, int64(len(replace)), p.exprKey(c))
	for _, m := range replace {
		p.emit(obs.KindOptPRERemove, m.Block.ID, m.ID, int64(phi.ID), "")
		m.ReplaceUses(phi)
		p.stats.Removals++
	}
}

// template returns an insertable member of c to copy op and operands
// from, or nil when the class has none.
func (p *pass) template(c core.ClassID) *ir.Instr {
	for _, m := range p.part.Members(c) {
		if insertable(m.Op) && m.Block != nil && m.Block.Routine == p.r {
			return m
		}
	}
	return nil
}

// constFor materializes (once) a constant in the entry block, after the
// parameters, where it dominates every insertion point.
func (p *pass) constFor(v int64) *ir.Instr {
	if ci := p.consts[v]; ci != nil {
		return ci
	}
	entry := p.r.Entry()
	ci := p.r.InsertBefore(entry.Instrs[len(p.r.Params)], ir.OpConst)
	ci.Const = v
	if p.consts == nil {
		p.consts = map[int64]*ir.Instr{}
	}
	p.consts[v] = ci
	return ci
}

// exprKey renders the class's canonical expression for trace notes.
func (p *pass) exprKey(c core.ClassID) string {
	if e := p.part.LeaderExpr(c); e != nil {
		return e.Key()
	}
	return ""
}

func (p *pass) emit(k obs.Kind, block, instr int, arg int64, note string) {
	if p.tr != nil {
		p.tr.Emit(k, 0, block, instr, arg, note)
	}
}

// bitset is a fixed-capacity dense bit vector over class ids.
type bitset struct {
	n     int
	words []uint64
}

func newBitset(n int) bitset { return bitset{n: n, words: make([]uint64, (n+63)/64)} }

func (s bitset) has(i int) bool { return s.words[i/64]&(1<<(uint(i)%64)) != 0 }
func (s bitset) set(i int)      { s.words[i/64] |= 1 << (uint(i) % 64) }

// fill sets every bit in range; bits beyond n stay clear so equal() works.
func (s bitset) fill() {
	for k := range s.words {
		s.words[k] = ^uint64(0)
	}
	if r := uint(s.n) % 64; r != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] = (1 << r) - 1
	}
}

func (s bitset) copyFrom(o bitset) { copy(s.words, o.words) }

// zero clears every bit.
func (s bitset) zero() { clear(s.words) }

func (s bitset) intersect(o bitset) {
	for k := range s.words {
		s.words[k] &= o.words[k]
	}
}

func (s bitset) union(o bitset) {
	for k := range s.words {
		s.words[k] |= o.words[k]
	}
}

func (s bitset) equal(o bitset) bool {
	for k := range s.words {
		if s.words[k] != o.words[k] {
			return false
		}
	}
	return true
}

// forEach calls f with each set bit index, in ascending order.
func (s bitset) forEach(f func(int)) {
	for w, word := range s.words {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &^= 1 << uint(b)
			f(w*64 + b)
		}
	}
}
