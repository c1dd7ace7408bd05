package core

import (
	"fmt"
	"os"

	"pgvn/internal/cfg"
	"pgvn/internal/dom"
	"pgvn/internal/expr"
	"pgvn/internal/ir"
	"pgvn/internal/obs"
	"pgvn/internal/slab"
	"pgvn/internal/ssa"
)

// domOracle answers the dominance queries the analysis needs. The
// practical algorithm uses the static *dom.Tree; the complete algorithm
// uses *dom.Incremental, maintained as edges become reachable (§2.7).
type domOracle interface {
	Contains(*ir.Block) bool
	IDom(*ir.Block) *ir.Block
	Dominates(a, b *ir.Block) bool
}

// Stats records the work the analysis performed; §4–§5 of the paper report
// these quantities for the SPEC corpus.
type Stats struct {
	// Passes is the number of RPO passes over the routine.
	Passes int
	// InstrEvals counts symbolic evaluations of value-producing
	// instructions.
	InstrEvals int
	// Touches counts instruction/block touch operations (after
	// deduplication).
	Touches int
	// ValueInfVisits / PredInfVisits count blocks visited while walking
	// dominators during value and predicate inference; PhiPredVisits
	// counts blocks visited while computing block predicates. Divided by
	// InstrEvals they give the paper's §4 per-instruction averages.
	ValueInfVisits, PredInfVisits, PhiPredVisits int
}

// class is one congruence class: a set of values with a leader (a constant
// or a member value) and a defining expression. Members are stored as
// dense instruction ids (the fixpoint works entirely over the routine's
// arena); the Result boundary converts to *ir.Instr.
type class struct {
	members     []ir.InstrID
	leaderConst *expr.Expr // non-nil iff the leader is a constant
	leaderVal   ir.InstrID // representative member (valid even when constant)
	expr        *expr.Expr // canonical defining expression (EXPRESSION mapping; also the TABLE key)

	// §3 work filters: the number of members that appear as operands of
	// branch predicates (predicate inference is useless otherwise) and
	// of equality/disequality branch predicates (ditto for value
	// inference).
	nPredOps int
	nEqOps   int

	// dense is Partition's scratch stamp (dense id + 1; 0 = unassigned).
	// It is written and reset entirely within Result.Partition, which
	// is why Partition must not run concurrently on one Result.
	dense int
}

// noEdge is the sentinel dense edge id (edges are numbered by the arena).
const noEdge ir.EdgeID = ^ir.EdgeID(0)

// scratch is the reusable part of the fixpoint state: every dense side
// table the Result does NOT retain, kept in the Workspace so a batch run
// (the driver walks thousands of routines) pays the setup allocations
// roughly once per worker instead of once per routine. State the Result
// escapes with (blockReach, blockPred, classOf, rank, the class structs
// themselves) is deliberately absent: the tables are allocated fresh per
// run, and the classes and the universe are carved from chunks the
// Result owns until Result.Release hands them back.
type scratch struct {
	bools     slab.Table[bool]
	exprs     slab.Table[*expr.Expr]
	ints      slab.Table[int32]
	infMemo   slab.Table[memoEntry]
	canonical slab.Table[[]ir.EdgeID]
	rpoIDs    slab.Table[uint32]
	table     map[*expr.Expr]*class
	in        expr.Interner

	// Truncation-reset operand scratch, kept for its grown capacity.
	argbuf, phiArgs, predParts []*expr.Expr
	ppCanonical                []ir.EdgeID
}

// reset zeroes what the last run was handed and empties the universe.
// The operand buffers are truncated rather than cleared by evaluations,
// so stale pointers sit past their length: they are cleared whole.
func (sc *scratch) reset() {
	sc.bools.Reset()
	sc.exprs.Reset()
	sc.ints.Reset()
	sc.infMemo.Reset()
	sc.canonical.Reset()
	sc.rpoIDs.Reset()
	clear(sc.table)
	sc.in.Release()
	sc.argbuf = clearedBuf(sc.argbuf)
	sc.phiArgs = clearedBuf(sc.phiArgs)
	sc.predParts = clearedBuf(sc.predParts)
}

// analysis carries the whole algorithm state for one routine. The hot
// fixpoint operates on dense uint32 ids over the routine's frozen arena;
// pointer-based IR access is confined to setup, the complete algorithm's
// incremental dominator tree, and the Result boundary. The dense bool,
// int32 and *expr.Expr side tables are carved from one workspace table
// each, so the fixpoint state is a handful of allocations per routine.
type analysis struct {
	cfg     Config
	routine *ir.Routine
	ar      *ir.Arena
	order   *cfg.Order
	rpoIDs  []uint32    // block ids in reverse post order
	rpoNum  []int       // RPO number by block id (alias of order.Number)
	byID    []*ir.Instr // instruction lookup by id (the arena's table)
	rank    []int32     // RANK mapping, by instruction id

	// in is the routine's expression universe: every expression the
	// fixpoint handles is hash-consed into it, so structural equality is
	// pointer equality and the TABLE below keys on canonical pointers —
	// no string key is ever rendered on the hot path.
	in      *expr.Interner
	valAtom []*expr.Expr // memoized canonical Value atom per instruction id

	domTree  domOracle // static (practical) or incremental reachable (complete)
	postTree *dom.Tree
	// idomArr caches the static tree's immediate dominators by block id
	// (-1 = none/outside); nil when the complete algorithm's incremental
	// tree is in use and idom queries must go through the pointer oracle.
	idomArr  []int32
	statTree *dom.Tree // domTree when static, for id-based Dominates

	// Edge state is stored densely by the arena's edge ids
	// (EdgeID = PredStart(to) + inIndex).
	backEdge  []bool // BACKWARD, by edge id
	nBack     int    // number of back edges
	edgeReach []bool // REACHABLE, by edge id
	edgePred  []*expr.Expr

	// hasBackIn[blockID] reports an incoming RPO back edge (cyclic φs).
	hasBackIn []bool

	classOf []*class // by value id; nil = INITIAL (⊥)
	table   map[*expr.Expr]*class
	changed []bool // CHANGED, by value id

	// §3 inferenceable-operand marks, by value id: the value appears as
	// an operand of a branch predicate (isPredOp) or of an equality or
	// disequality branch predicate / a switch selector (isEqOp).
	isPredOp, isEqOp []bool

	blockReach []bool // by block id

	blockPred     []*expr.Expr  // by block id (always canonical)
	blockPredNull []bool        // permanently nullified (§3)
	canonical     [][]ir.EdgeID // CANONICAL incoming-edge order, by block id

	touchedInstr []bool // by instruction id
	touchedBlock []bool // by block id
	touchedCount int

	// incDom is the complete algorithm's incremental reachable dominator
	// tree (nil for the practical algorithm and when everything is
	// assumed reachable).
	incDom *dom.Incremental

	// Value-inference memo (§3: multiple uses of an inferenceable value
	// in one evaluation must agree, so the first walk's result is
	// cached). Keyed by value id, invalidated by bumping infGen.
	infMemo []memoEntry
	infGen  int

	// φ-predication traversal scratch, generation-stamped: bumping ppCur
	// invalidates every per-block entry in O(1), so recomputing a block
	// predicate allocates no maps (entries are live when their gen slot
	// equals ppCur).
	ppCur       int32
	ppGen       []int32      // validity stamp for ppPartialS, by block id
	ppPartialS  []*expr.Expr // partial path predicates, by block id
	ppInitGen   []int32      // validity stamp of the per-block OR node
	ppCanonical []ir.EdgeID
	ppAborted   bool
	ppTarget    ir.BlockID

	// Operand scratch reused across evaluations (reset by truncation,
	// never reallocated once warm).
	argbuf    []*expr.Expr // opaque/compare operand lists
	phiArgs   []*expr.Expr // φ argument lists
	predParts []*expr.Expr // switch-default conjunction parts

	// sc is the workspace scratch this analysis carved its non-escaping
	// tables from; its grown operand buffers go back to it after result().
	sc *scratch

	// classSlab and memberSlab are chunked bump arenas class structs and
	// singleton member lists are carved from (newClass). They escape into
	// the Result with the classes, so they are the Result's until it is
	// released — the point is one allocation per chunk instead of two
	// per congruence class. Chunks grow geometrically (class churn varies
	// a lot per routine, so a fixed chunk either overshoots small
	// routines or undershoots big ones).
	classSlab   []class
	classChunk  int
	memberSlab  []ir.InstrID
	memberChunk int

	// slabs, lent by the workspace on RunIn, records every chunk this
	// run carves (universe, classes, members) and supplies its spare
	// chunks; the Result takes it over. Nil on Run: the chunks are plain
	// allocations the collector takes with the Result.
	slabs *slabs

	// tr receives the fixpoint event stream (nil = tracing off, the
	// fast path: every emission site tests the pointer once, and key
	// rendering is never forced untraced). curInstr attributes inference
	// events to the instruction being evaluated.
	tr       *obs.Tracer
	curInstr int

	stats Stats
}

// Prebuilt carries CFG analyses the embedding compiler already maintains,
// so their construction is not charged to the value numbering itself (in
// the paper's setting, HLO maintains these). Any nil field is computed on
// demand.
type Prebuilt struct {
	// Order is the routine's reverse post order.
	Order *cfg.Order
	// Dom is the static dominator tree (used by the practical
	// algorithm).
	Dom *dom.Tree
	// Post is the postdominator tree (used by φ-predication).
	Post *dom.Tree
}

// Run performs global value numbering on an SSA-form routine and returns
// the discovered reachability, congruence and constant information. The
// routine is not modified; use package opt to apply the results.
func Run(r *ir.Routine, config Config) (*Result, error) {
	return RunPrebuilt(r, config, nil)
}

// RunPrebuilt is Run with caller-supplied CFG analyses (see Prebuilt).
// Its working tables come from a pooled Workspace, returned before it
// returns; the Result is plain memory.
func RunPrebuilt(r *ir.Routine, config Config, pre *Prebuilt) (*Result, error) {
	w := GetWorkspace()
	defer PutWorkspace(w)
	return w.run(r, config, pre, false)
}

// RunIn is Run with every working table taken from w (nil allocates
// them), and the Result's expression universe and classes carved from
// chunks w lends it until Result.Release hands them back. The Result
// reaches w for what opt and pre build over it; release it before w is
// reset.
func RunIn(w *Workspace, r *ir.Routine, config Config) (*Result, error) {
	if w == nil {
		w = new(Workspace)
	}
	return w.run(r, config, nil, true)
}

// run analyzes r in w. With lend, the Result carves from w's chunk set
// and records w; without, it is plain memory.
func (w *Workspace) run(r *ir.Routine, config Config, pre *Prebuilt, lend bool) (*Result, error) {
	config = config.normalized()
	if !r.IsSSA() {
		return nil, fmt.Errorf("core: %s is not in SSA form (run ssa.Build first)", r.Name)
	}
	if config.VerifySSA {
		if err := ssa.Verify(r); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}
	if pre == nil {
		pre = &Prebuilt{}
	}
	a := newAnalysis(w, r, config, pre, lend)
	ar := a.ar
	if a.tr == nil && debugSink {
		// PGVN_DEBUG is an alias for a stderr text sink when no tracer
		// was configured explicitly.
		name := r.Name
		a.tr = obs.NewSinkTracer(func(e obs.Event) {
			fmt.Fprintln(os.Stderr, obs.FormatEvent(name, e))
		})
	}

	// Initial assumption.
	if config.Mode == Pessimistic || config.AssumeAllReachable {
		for _, bID := range a.rpoIDs {
			a.blockReach[bID] = true
			for _, eid := range ar.SuccEdgeIDs(bID) {
				if a.rpoNum[ar.EdgeTo(eid)] >= 0 {
					a.edgeReach[eid] = true
				}
			}
		}
		if config.Complete {
			// Everything is reachable: the reachable dominator tree is
			// the static tree.
			a.domTree = dom.NewIn(&w.ssa.Dom, r)
			a.incDom = nil
		}
		for _, bID := range a.rpoIDs {
			a.touchBlock(bID)
			a.touchAllIn(bID)
		}
	} else {
		entry := ir.BlockID(r.Entry().ID)
		a.blockReach[entry] = true
		a.touchBlock(entry)
		a.touchAllIn(entry)
	}
	a.bindDomArrays()

	// The paper bounds the pass count by the loop connectedness of the
	// SSA *def-use* graph: an acyclic def-use path threading k
	// loop-carried values needs up to k+O(1) passes. The number of CFG
	// back edges bounds that connectedness from above.
	maxPasses := config.MaxPasses
	if maxPasses == 0 {
		maxPasses = 16 + 3*a.nBack
	}

	for a.touchedCount > 0 {
		a.stats.Passes++
		if a.stats.Passes > maxPasses {
			return nil, fmt.Errorf("core: %s did not converge after %d passes", r.Name, maxPasses)
		}
		if a.tr != nil {
			a.tr.Emit(obs.KindPassStart, a.stats.Passes, -1, -1, 0, "")
		}
		for _, bID := range a.rpoIDs {
			if a.touchedBlock[bID] {
				a.touchedBlock[bID] = false
				a.touchedCount--
				if a.blockReach[bID] && a.cfg.PhiPredication {
					a.computePredicateOfBlock(bID)
				}
			}
			for _, i := range ar.InstrIDsOf(bID) {
				if !a.touchedInstr[i] {
					continue
				}
				a.touchedInstr[i] = false
				a.touchedCount--
				if !a.blockReach[bID] {
					continue
				}
				op := ar.Op(i)
				if op.HasValue() {
					a.stats.InstrEvals++
					a.infGen++ // new evaluation: fresh inference memo
					a.curInstr = int(i)
					e := a.evaluate(i)
					if a.tr != nil {
						a.tr.Emit(obs.KindEval, a.stats.Passes, int(bID), int(i), 0, e.Key())
					}
					a.congruenceFind(i, e)
				} else if op.IsTerminator() {
					a.infGen++ // edge predicates evaluate at this block
					a.curInstr = int(i)
					a.processOutgoingEdges(bID)
				}
			}
			if a.touchedCount == 0 {
				break // §3: terminate in the middle of a pass
			}
		}
		a.curInstr = -1
		if a.tr != nil {
			a.tr.Emit(obs.KindPassEnd, a.stats.Passes, -1, -1, int64(a.touchedCount), "")
		}
		if config.Mode != Optimistic {
			break // balanced and pessimistic: a single pass
		}
	}
	res := a.result()
	if lend {
		res.ws = w
	}
	// The operand buffers may have grown: keep the larger capacity.
	a.sc.argbuf, a.sc.phiArgs, a.sc.predParts = a.argbuf, a.phiArgs, a.predParts
	a.sc.ppCanonical = a.ppCanonical[:0]
	return res, nil
}

// clearedBuf empties an operand buffer, nil-ing its whole backing
// array: evaluations truncate rather than clear, so stale pointers sit
// past the length.
func clearedBuf(s []*expr.Expr) []*expr.Expr {
	s = s[:cap(s)]
	clear(s)
	return s[:0]
}

// newClass carves a fresh singleton congruence class for value v out of
// the chunked class and member slabs.
//
//pgvn:hotpath
func (a *analysis) newClass(v ir.InstrID, e *expr.Expr) *class {
	if len(a.classSlab) == 0 {
		a.classChunk = min(max(2*a.classChunk, 16), 1024)
		a.classSlab = a.slabs.classSet().Next(a.classChunk, 1)
	}
	c := &a.classSlab[0]
	a.classSlab = a.classSlab[1:]
	if len(a.memberSlab) == 0 {
		a.memberChunk = min(max(2*a.memberChunk, 32), 4096)
		a.memberSlab = a.slabs.memberSet().Next(a.memberChunk, 1)
	}
	ms := a.memberSlab[:1:1]
	a.memberSlab = a.memberSlab[1:]
	ms[0] = v
	c.members = ms
	c.leaderVal = v
	c.expr = e
	return c
}

// memoEntry is one slot of the per-evaluation value-inference cache.
type memoEntry struct {
	gen    int
	result *expr.Expr
}

// newAnalysis builds the analysis state for one routine: the arena
// snapshot, then every dense side table, carved from one workspace table
// per element type so the fixpoint itself runs without growth
// reallocation and setup stays a handful of allocations.
func newAnalysis(w *Workspace, r *ir.Routine, config Config, pre *Prebuilt, lend bool) *analysis {
	order := pre.Order
	if order == nil {
		order = cfg.ReversePostOrderIn(&w.order, r)
	}
	ar := ir.FreezeArena(r, &w.ssa.IR)
	ni := ar.NumInstrIDs()
	nb := ar.NumBlockIDs()
	ne := ar.NumEdges()
	sc := &w.sc
	a := &analysis{
		cfg:      config,
		routine:  r,
		ar:       ar,
		order:    order,
		rpoNum:   order.Number,
		byID:     ar.InstrPtrs(),
		sc:       sc,
		tr:       config.Trace,
		curInstr: -1,
	}
	if lend {
		a.slabs = w.slabs
		if a.slabs == nil {
			a.slabs = &slabs{}
		}
		w.slabs = nil
	}
	sc.in.Reset(2*ni, a.slabs.exprSet())
	a.in = &sc.in
	if sc.table == nil {
		sc.table = make(map[*expr.Expr]*class, ni)
	}
	clear(sc.table) // empty unless w ran a routine since its last Reset
	a.table = sc.table

	// Workspace side tables: one backing per element type, handed out
	// zeroed, so they behave exactly like a fresh run (the validity
	// stamps ppGen/ppInitGen/infMemo compare against counters that start
	// above zero). blockReach, blockPred and rank escape into the Result
	// and are allocated fresh instead.
	bools := sc.bools.Take(4*ni + 3*nb + 2*ne)
	carveBool := func(n int) []bool {
		s := bools[:n:n]
		bools = bools[n:]
		return s
	}
	a.touchedInstr = carveBool(ni)
	a.changed = carveBool(ni)
	a.isPredOp = carveBool(ni)
	a.isEqOp = carveBool(ni)
	a.blockPredNull = carveBool(nb)
	a.touchedBlock = carveBool(nb)
	a.hasBackIn = carveBool(nb)
	a.backEdge = carveBool(ne)
	a.edgeReach = carveBool(ne)
	a.blockReach = make([]bool, nb)

	exprs := sc.exprs.Take(ni + nb + ne)
	carveExpr := func(n int) []*expr.Expr {
		s := exprs[:n:n]
		exprs = exprs[n:]
		return s
	}
	a.valAtom = carveExpr(ni)
	a.ppPartialS = carveExpr(nb)
	a.edgePred = carveExpr(ne)
	a.blockPred = make([]*expr.Expr, nb)

	ints := sc.ints.Take(3 * nb)
	carveInt := func(n int) []int32 {
		s := ints[:n:n]
		ints = ints[n:]
		return s
	}
	a.ppGen = carveInt(nb)
	a.ppInitGen = carveInt(nb)
	a.idomArr = carveInt(nb) // filled by bindDomArrays (practical mode)
	a.rank = make([]int32, ni)

	a.infMemo = sc.infMemo.Take(ni)
	a.canonical = sc.canonical.Take(nb)
	a.rpoIDs = sc.rpoIDs.Take(len(order.Blocks))
	a.argbuf = sc.argbuf[:0]
	a.phiArgs = sc.phiArgs[:0]
	a.predParts = sc.predParts[:0]
	a.ppCanonical = sc.ppCanonical[:0]

	a.classOf = make([]*class, ni)
	for k, b := range order.Blocks {
		a.rpoIDs[k] = uint32(b.ID)
	}

	a.assignRanks()
	a.markInferenceable()

	// Back edges, by the arena's dense edge numbering.
	for _, bID := range a.rpoIDs {
		f := a.rpoNum[bID]
		for _, eid := range ar.SuccEdgeIDs(bID) {
			to := ar.EdgeTo(eid)
			if t := a.rpoNum[to]; t >= 0 && t <= f {
				a.backEdge[eid] = true
				a.nBack++
				a.hasBackIn[to] = true
			}
		}
	}

	a.postTree = pre.Post
	if a.postTree == nil {
		a.postTree = dom.NewPostIn(&w.ssa.Dom, r)
	}
	if config.Complete {
		// The complete algorithm maintains the dominator tree of the
		// currently reachable subgraph incrementally (§2.7).
		a.incDom = dom.NewIncremental(r)
		a.domTree = a.incDom
	} else if pre.Dom != nil {
		a.domTree = pre.Dom
	} else {
		a.domTree = dom.NewIn(&w.ssa.Dom, r)
	}
	return a
}

// bindDomArrays snapshots the static dominator tree into id-indexed
// arrays, so the practical algorithm's dominator walks never materialize
// *ir.Block. The complete algorithm's incremental tree changes during
// the run and keeps the pointer oracle (idomArr nil).
func (a *analysis) bindDomArrays() {
	if a.incDom != nil {
		a.idomArr = nil
		a.statTree = nil
		return
	}
	t, ok := a.domTree.(*dom.Tree)
	if !ok {
		a.idomArr = nil
		return
	}
	a.statTree = t
	for b := range a.idomArr {
		if !t.ContainsID(b) {
			a.idomArr[b] = -1
			continue
		}
		a.idomArr[b] = int32(t.IDomID(b))
	}
}

// markInferenceable precomputes the §3 work filters: a value is
// predicate-inferenceable when it is an operand of any comparison (a
// comparison may control a conditional jump, possibly through copies the
// partition later collapses), and value-inferenceable when that comparison
// is an equality or disequality, or the value selects a switch (whose case
// edges carry equality predicates).
func (a *analysis) markInferenceable() {
	ar := a.ar
	for b := 0; b < ar.NumBlockIDs(); b++ {
		for _, i := range ar.InstrIDsOf(uint32(b)) {
			op := ar.Op(i)
			switch {
			case op.IsCompare():
				for _, arg := range ar.ArgIDs(i) {
					a.isPredOp[arg] = true
					if op == ir.OpEq || op == ir.OpNe {
						a.isEqOp[arg] = true
					}
				}
			case op == ir.OpSwitch:
				sel := ar.Arg(i, 0)
				a.isPredOp[sel] = true
				a.isEqOp[sel] = true
			}
		}
	}
}

// assignRanks implements the paper's Assign ranks to values: values are
// ranked 1.. in RPO definition order (constants, as expressions, rank 0).
func (a *analysis) assignRanks() {
	ar := a.ar
	rank := int32(0)
	for _, bID := range a.rpoIDs {
		for _, i := range ar.InstrIDsOf(bID) {
			if ar.Op(i).HasValue() {
				rank++
				a.rank[i] = rank
			}
		}
	}
}

// touchInstr adds i to TOUCHED (deduplicated). Instructions in blocks the
// RPO never visits (statically unreachable islands) are ignored: the
// driver could never wipe them, and their values stay in INITIAL anyway.
//
//pgvn:hotpath
func (a *analysis) touchInstr(i ir.InstrID) {
	if a.touchedInstr[i] {
		return
	}
	b := a.ar.BlockOf(i)
	if a.rpoNum[b] < 0 {
		return
	}
	a.touchedInstr[i] = true
	a.touchedCount++
	a.stats.Touches++
	if a.tr != nil {
		a.tr.Emit(obs.KindTouchInstr, a.stats.Passes, int(b), int(i), 0, "")
	}
}

// touchBlock adds b to TOUCHED (deduplicated).
//
//pgvn:hotpath
func (a *analysis) touchBlock(b ir.BlockID) {
	if !a.touchedBlock[b] {
		a.touchedBlock[b] = true
		a.touchedCount++
		a.stats.Touches++
		if a.tr != nil {
			a.tr.Emit(obs.KindTouchBlock, a.stats.Passes, int(b), -1, 0, "")
		}
	}
}

// touchUsers touches the consumers of v, or the whole routine in dense
// mode.
//
//pgvn:hotpath
func (a *analysis) touchUsers(v ir.InstrID) {
	if !a.cfg.Sparse {
		a.touchEverything()
		return
	}
	for _, u := range a.ar.UseIDs(v) {
		a.touchInstr(u)
	}
}

// touchEverything implements the dense (non-sparse) formulation: any
// refinement reapplies the assumption to the entire routine.
func (a *analysis) touchEverything() {
	for _, bID := range a.rpoIDs {
		a.touchBlock(bID)
		a.touchAllIn(bID)
	}
}

// touchAllIn touches every instruction of block b, which must be in the
// RPO (every caller iterates rpoIDs). Semantically identical to calling
// touchInstr on each instruction — the block membership and RPO checks
// are hoisted out of the per-instruction loop.
//
//pgvn:hotpath
func (a *analysis) touchAllIn(b ir.BlockID) {
	for _, i := range a.ar.InstrIDsOf(b) {
		if a.touchedInstr[i] {
			continue
		}
		a.touchedInstr[i] = true
		a.touchedCount++
		a.stats.Touches++
		if a.tr != nil {
			a.tr.Emit(obs.KindTouchInstr, a.stats.Passes, int(b), int(i), 0, "")
		}
	}
}

// idomID returns the immediate dominator's block id under the tree in
// use (reachable tree for the complete algorithm, static tree for the
// practical one), or -1.
//
//pgvn:hotpath
func (a *analysis) idomID(b int32) int32 {
	if a.idomArr != nil {
		return a.idomArr[b]
	}
	blk := a.ar.BlockPtr(uint32(b))
	if !a.domTree.Contains(blk) {
		return -1
	}
	if d := a.domTree.IDom(blk); d != nil {
		return int32(d.ID)
	}
	return -1
}

// dominatesForPredID answers dominance queries for the φ-predication
// shortcut, tolerating blocks outside the (reachable) dominator tree.
func (a *analysis) dominatesForPredID(x, y ir.BlockID) bool {
	if a.statTree != nil {
		return a.statTree.DominatesID(int(x), int(y))
	}
	bx, by := a.ar.BlockPtr(x), a.ar.BlockPtr(y)
	if !a.domTree.Contains(bx) || !a.domTree.Contains(by) {
		return false
	}
	return a.domTree.Dominates(bx, by)
}

// leaderExpr returns the symbolic evaluation of value v: ⊥ while v is in
// INITIAL, the leader constant, or a Value atom for the leader.
//
//pgvn:hotpath
func (a *analysis) leaderExpr(v ir.InstrID) *expr.Expr {
	c := a.classOf[v]
	if c == nil {
		return expr.Bot
	}
	if c.leaderConst != nil {
		return c.leaderConst
	}
	return a.valueAtom(c.leaderVal)
}

// valueAtom returns the canonical Value atom for v, memoized by id so the
// interner probe runs once per value.
//
//pgvn:hotpath
func (a *analysis) valueAtom(v ir.InstrID) *expr.Expr {
	if e := a.valAtom[v]; e != nil {
		return e
	}
	e := a.in.Value(int(v), int(a.rank[v]))
	a.valAtom[v] = e
	return e
}

// classOfAtom resolves the class a Value atom refers to.
//
//pgvn:hotpath
func (a *analysis) classOfAtom(e *expr.Expr) *class {
	if e.Kind != expr.Value {
		return nil
	}
	return a.classOf[e.ValueID()]
}

// debugSink mirrors the historical PGVN_DEBUG switch: when set and no
// tracer is configured, Run attaches a stderr text sink so every fixpoint
// event prints as it happens (see obs.FormatEvent for the line format).
var debugSink = os.Getenv("PGVN_DEBUG") != ""
