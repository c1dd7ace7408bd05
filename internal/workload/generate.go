// Package workload generates deterministic synthetic routines and the
// SPEC CINT2000-shaped corpus the benchmark harness measures (see
// DESIGN.md §3 for the substitution rationale).
//
// Generated routines are structured (reducible CFGs), always terminate
// under the reference interpreter (loops are counted with constant trip
// counts), and deliberately plant the phenomena the paper's analyses
// exploit: redundant and commuted expressions, reassociable chains,
// branch-correlated values, statically dead branches, mirrored diamonds
// (φ-predication fodder), loop-invariant cyclic values and lockstep
// counters (cyclic congruences).
package workload

import (
	"fmt"
	"math/rand"

	"pgvn/internal/ir"
)

// GenConfig parameterizes routine generation.
type GenConfig struct {
	// Seed makes generation deterministic.
	Seed int64
	// Stmts is the approximate number of statements to generate.
	Stmts int
	// Params is the number of routine parameters (at least 1).
	Params int
	// MaxLoopDepth bounds loop nesting (0 disables loops).
	MaxLoopDepth int
	// Irreducible permits two-entry cycles (irreducible regions); off by
	// default, matching the corpus (compiled C is overwhelmingly
	// reducible).
	Irreducible bool
	// PartialRedundancy biases the statement mix toward GVN-PRE fodder:
	// expressions computed on a strict subset of a merge's incoming
	// paths and recomputed after it (see stmtPartialRedundancy).
	PartialRedundancy bool
}

// Generate builds one routine in non-SSA form (run ssa.Build before GVN).
func Generate(name string, cfg GenConfig) *ir.Routine {
	if cfg.Params < 1 {
		cfg.Params = 1
	}
	if cfg.Stmts < 1 {
		cfg.Stmts = 1
	}
	g := &generator{
		rng:        rand.New(rand.NewSource(cfg.Seed)),
		cfg:        cfg,
		r:          ir.NewRoutine(name),
		budget:     cfg.Stmts,
		loopBudget: 2, // most routines: at most two loops, like typical C
	}
	if g.rng.Intn(4) == 0 {
		g.loopBudget = 3
	}
	if g.rng.Intn(3) == 0 {
		g.loopBudget = 1
	}
	for k := 0; k < cfg.Params; k++ {
		p := g.r.AddParam(fmt.Sprintf("p%d", k))
		g.vars = append(g.vars, p.Name)
	}
	g.cur = g.r.Entry()
	// Initialize a pool of locals so every variable is defined on all
	// paths.
	locals := 2 + g.rng.Intn(4)
	for k := 0; k < locals; k++ {
		name := fmt.Sprintf("t%d", k)
		g.assign(name, g.constant(int64(g.rng.Intn(13)-6)))
		g.vars = append(g.vars, name)
	}
	g.genStmts()
	// Return a value that depends on several locals so optimizations are
	// observable.
	ret := g.readVar()
	for k := 0; k < 2; k++ {
		ret = g.binop(ir.OpAdd, ret, g.readVar())
	}
	g.r.Append(g.cur, ir.OpReturn, ret)
	if err := g.r.Verify(); err != nil {
		panic("workload: generated invalid routine: " + err.Error())
	}
	return g.r
}

type generator struct {
	rng    *rand.Rand
	cfg    GenConfig
	r      *ir.Routine
	cur    *ir.Block
	vars   []string
	budget int

	loopDepth  int
	loopSeq    int
	blockSeq   int
	preSeq     int // partial-redundancy patterns emitted (names their snapshots)
	loopBudget int // loops remaining (keeps def-use loop connectedness realistic)

	// recipes remembers recently generated expressions for replay, so
	// genuine redundancies (including commuted ones) appear.
	recipes []recipe
}

type recipe struct {
	op   ir.Op
	a, b string // variable names
}

// newBlock appends a fresh block.
func (g *generator) newBlock(kind string) *ir.Block {
	g.blockSeq++
	return g.r.NewBlock(fmt.Sprintf("%s%d", kind, g.blockSeq))
}

func (g *generator) constant(c int64) *ir.Instr {
	return g.r.ConstInt(g.cur, c)
}

func (g *generator) readVar() *ir.Instr {
	name := g.vars[g.rng.Intn(len(g.vars))]
	rd := g.r.Append(g.cur, ir.OpVarRead)
	rd.Name = name
	return rd
}

func (g *generator) readNamed(name string) *ir.Instr {
	rd := g.r.Append(g.cur, ir.OpVarRead)
	rd.Name = name
	return rd
}

func (g *generator) binop(op ir.Op, a, b *ir.Instr) *ir.Instr {
	return g.r.Append(g.cur, op, a, b)
}

func (g *generator) assign(name string, v *ir.Instr) {
	w := g.r.Append(g.cur, ir.OpVarWrite, v)
	w.Name = name
}

// targetVar picks a variable to assign (never a parameter-shadowing loop
// counter; parameters may be reassigned — they are ordinary variables).
func (g *generator) targetVar() string {
	return g.vars[g.rng.Intn(len(g.vars))]
}

// genExpr generates a random expression tree of bounded depth.
func (g *generator) genExpr(depth int) *ir.Instr {
	if depth <= 0 || g.rng.Intn(3) == 0 {
		if g.rng.Intn(3) == 0 {
			return g.constant(int64(g.rng.Intn(21) - 10))
		}
		return g.readVar()
	}
	switch g.rng.Intn(12) {
	case 0, 1, 2:
		return g.binop(ir.OpAdd, g.genExpr(depth-1), g.genExpr(depth-1))
	case 3, 4:
		return g.binop(ir.OpSub, g.genExpr(depth-1), g.genExpr(depth-1))
	case 5, 6:
		return g.binop(ir.OpMul, g.genExpr(depth-1), g.genExpr(depth-1))
	case 7:
		return g.binop(ir.OpDiv, g.genExpr(depth-1), g.genExpr(depth-1))
	case 8:
		return g.binop(ir.OpMod, g.genExpr(depth-1), g.genExpr(depth-1))
	case 9:
		op := []ir.Op{ir.OpEq, ir.OpNe, ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe}[g.rng.Intn(6)]
		return g.binop(op, g.genExpr(depth-1), g.genExpr(depth-1))
	case 10:
		call := g.r.Append(g.cur, ir.OpCall, g.genExpr(depth-1))
		call.Name = fmt.Sprintf("f%d", g.rng.Intn(3))
		return call
	default:
		neg := g.r.Append(g.cur, ir.OpNeg, g.genExpr(depth-1))
		return neg
	}
}

// genCond generates a comparison for a branch.
func (g *generator) genCond() *ir.Instr {
	op := []ir.Op{ir.OpEq, ir.OpNe, ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe}[g.rng.Intn(6)]
	var rhs *ir.Instr
	if g.rng.Intn(2) == 0 {
		rhs = g.constant(int64(g.rng.Intn(11) - 5))
	} else {
		rhs = g.readVar()
	}
	return g.binop(op, g.readVar(), rhs)
}

// genStmts consumes the statement budget with a random statement mix.
func (g *generator) genStmts() {
	for g.budget > 0 {
		g.budget--
		switch g.rng.Intn(20) {
		case 0, 1, 2, 3, 4, 5:
			g.stmtAssign()
		case 6, 7:
			g.stmtRedundantPair()
		case 8:
			g.stmtReassocChain()
		case 9, 10:
			g.stmtIf()
		case 11:
			g.stmtDeadBranch()
		case 12:
			g.stmtCorrelatedBranch()
		case 13:
			g.stmtMirroredDiamonds()
		case 14, 15:
			if g.loopDepth < g.cfg.MaxLoopDepth && g.loopBudget > 0 {
				g.loopBudget--
				g.stmtLoop()
			} else {
				g.stmtAssign()
			}
		case 16:
			g.stmtSwitch()
		case 17:
			if g.loopBudget > 0 {
				g.loopBudget--
				g.stmtLockstepLoop()
			} else {
				g.stmtAssign()
			}
		case 18:
			if g.cfg.Irreducible && g.loopBudget > 0 {
				g.loopBudget--
				g.stmtIrreducible()
			} else {
				g.stmtAssign()
			}
		case 19:
			if g.cfg.PartialRedundancy {
				g.stmtPartialRedundancy()
			} else {
				g.stmtAssign()
			}
		default:
			g.stmtAssign()
		}
		// A PRE-focused routine plants the pattern on most steps, not one
		// in twenty: the family exists to exercise the pass.
		if g.cfg.PartialRedundancy && g.budget > 0 && g.rng.Intn(2) == 0 {
			g.budget--
			g.stmtPartialRedundancy()
		}
	}
}

func (g *generator) stmtAssign() {
	v := g.genExpr(2)
	name := g.targetVar()
	g.assign(name, v)
	if v.Op.IsCommutative() || v.Op == ir.OpSub {
		if len(v.Args) == 2 && v.Args[0].Op == ir.OpVarRead && v.Args[1].Op == ir.OpVarRead {
			g.recipes = append(g.recipes, recipe{v.Op, v.Args[0].Name, v.Args[1].Name})
		}
	}
}

// stmtRedundantPair replays a remembered expression, sometimes commuted —
// redundancy-elimination fodder.
func (g *generator) stmtRedundantPair() {
	if len(g.recipes) == 0 {
		g.stmtAssign()
		return
	}
	rc := g.recipes[g.rng.Intn(len(g.recipes))]
	a, b := g.readNamed(rc.a), g.readNamed(rc.b)
	if rc.op.IsCommutative() && g.rng.Intn(2) == 0 {
		a, b = b, a
	}
	g.assign(g.targetVar(), g.binop(rc.op, a, b))
}

// stmtReassocChain plants two differently associated sums of the same
// variables — global-reassociation fodder.
func (g *generator) stmtReassocChain() {
	n := 3 + g.rng.Intn(3)
	names := make([]string, n)
	for k := range names {
		names[k] = g.vars[g.rng.Intn(len(g.vars))]
	}
	sum := g.readNamed(names[0])
	for _, nm := range names[1:] {
		sum = g.binop(ir.OpAdd, sum, g.readNamed(nm))
	}
	g.assign(g.targetVar(), sum)
	// The same variables, reversed association order.
	perm := g.rng.Perm(n)
	sum2 := g.readNamed(names[perm[0]])
	for _, idx := range perm[1:] {
		sum2 = g.binop(ir.OpAdd, sum2, g.readNamed(names[idx]))
	}
	g.assign(g.targetVar(), sum2)
}

// joinBlocks ends the current block with a branch and returns (then, else,
// join) blocks, leaving g.cur at then.
func (g *generator) openDiamond(cond *ir.Instr) (thenB, elseB, join *ir.Block) {
	thenB = g.newBlock("t")
	elseB = g.newBlock("e")
	join = g.newBlock("j")
	g.r.Append(g.cur, ir.OpBranch, cond)
	g.r.AddEdge(g.cur, thenB)
	g.r.AddEdge(g.cur, elseB)
	return thenB, elseB, join
}

func (g *generator) stmtIf() {
	cond := g.genCond()
	thenB, elseB, join := g.openDiamond(cond)
	g.cur = thenB
	g.stmtAssign()
	if g.budget > 0 && g.rng.Intn(2) == 0 {
		g.budget--
		g.stmtAssign()
	}
	g.r.Append(g.cur, ir.OpJump)
	g.r.AddEdge(g.cur, join)
	g.cur = elseB
	if g.rng.Intn(3) != 0 {
		g.stmtAssign()
	}
	g.r.Append(g.cur, ir.OpJump)
	g.r.AddEdge(g.cur, join)
	g.cur = join
}

// stmtDeadBranch branches on a constant comparison: one arm is
// statically dead — UCE fodder.
func (g *generator) stmtDeadBranch() {
	c1 := int64(g.rng.Intn(10))
	c2 := c1 + 1 + int64(g.rng.Intn(5))
	cond := g.binop(ir.OpGt, g.constant(c1), g.constant(c2)) // always false
	thenB, elseB, join := g.openDiamond(cond)
	g.cur = thenB // dead
	g.assign(g.targetVar(), g.genExpr(2))
	g.r.Append(g.cur, ir.OpJump)
	g.r.AddEdge(g.cur, join)
	g.cur = elseB
	g.stmtAssign()
	g.r.Append(g.cur, ir.OpJump)
	g.r.AddEdge(g.cur, join)
	g.cur = join
}

// stmtCorrelatedBranch guards a region with v == c and uses v inside —
// value-inference fodder; the nested guard re-tests a related predicate —
// predicate-inference fodder.
func (g *generator) stmtCorrelatedBranch() {
	vname := g.vars[g.rng.Intn(len(g.vars))]
	c := int64(g.rng.Intn(7) - 3)
	cond := g.binop(ir.OpEq, g.readNamed(vname), g.constant(c))
	thenB, elseB, join := g.openDiamond(cond)
	g.cur = thenB
	g.assign(g.targetVar(), g.binop(ir.OpAdd, g.readNamed(vname), g.constant(1)))
	// A comparison decided by the dominating predicate.
	dead := g.binop(ir.OpGt, g.readNamed(vname), g.constant(c+2+int64(g.rng.Intn(3))))
	g.assign(g.targetVar(), dead)
	g.r.Append(g.cur, ir.OpJump)
	g.r.AddEdge(g.cur, join)
	g.cur = elseB
	g.r.Append(g.cur, ir.OpJump)
	g.r.AddEdge(g.cur, join)
	g.cur = join
}

// stmtMirroredDiamonds emits two consecutive diamonds on the same
// condition assigning the same values — φ-predication fodder.
func (g *generator) stmtMirroredDiamonds() {
	condVar := g.vars[g.rng.Intn(len(g.vars))]
	c := int64(g.rng.Intn(5))
	aSrc := g.vars[g.rng.Intn(len(g.vars))]
	bSrc := g.vars[g.rng.Intn(len(g.vars))]
	out1 := g.targetVar()
	out2 := g.targetVar()
	for rep, out := range []string{out1, out2} {
		cond := g.binop(ir.OpLt, g.readNamed(condVar), g.constant(c))
		thenB, elseB, join := g.openDiamond(cond)
		g.cur = thenB
		g.assign(out, g.binop(ir.OpAdd, g.readNamed(aSrc), g.constant(3)))
		g.r.Append(g.cur, ir.OpJump)
		g.r.AddEdge(g.cur, join)
		g.cur = elseB
		g.assign(out, g.binop(ir.OpMul, g.readNamed(bSrc), g.constant(2)))
		g.r.Append(g.cur, ir.OpJump)
		g.r.AddEdge(g.cur, join)
		g.cur = join
		// The sources must not be reassigned between the diamonds, and
		// out1 must differ from the second diamond's inputs; simplest:
		// nothing between the two diamonds.
		_ = rep
	}
	if out1 != out2 {
		// d is 0 when φ-predication proves the φs congruent.
		g.assign(g.targetVar(), g.binop(ir.OpSub, g.readNamed(out1), g.readNamed(out2)))
	}
}

// stmtLoop emits a counted while loop with a constant trip count (2–6),
// guaranteeing interpreter termination.
func (g *generator) stmtLoop() {
	g.loopSeq++
	counter := fmt.Sprintf("c%d", g.loopSeq)
	trip := int64(2 + g.rng.Intn(5))
	g.assign(counter, g.constant(0))

	head := g.newBlock("h")
	body := g.newBlock("b")
	exit := g.newBlock("x")
	g.r.Append(g.cur, ir.OpJump)
	g.r.AddEdge(g.cur, head)

	g.cur = head
	cond := g.binop(ir.OpLt, g.readNamed(counter), g.constant(trip))
	g.r.Append(g.cur, ir.OpBranch, cond)
	g.r.AddEdge(g.cur, body)
	g.r.AddEdge(g.cur, exit)

	g.cur = body
	g.loopDepth++
	inner := 1 + g.rng.Intn(3)
	for k := 0; k < inner && g.budget > 0; k++ {
		g.budget--
		switch g.rng.Intn(6) {
		case 0:
			g.stmtIf()
		case 1:
			g.stmtRedundantPair()
		case 2:
			// A loop-invariant recomputation: x = x * 1.
			v := g.targetVar()
			g.assign(v, g.binop(ir.OpMul, g.readNamed(v), g.constant(1)))
		default:
			g.stmtAssign()
		}
	}
	if g.loopDepth < g.cfg.MaxLoopDepth && g.budget > 2 && g.loopBudget > 0 && g.rng.Intn(3) == 0 {
		g.budget -= 2
		g.loopBudget--
		g.stmtLoop()
	}
	g.loopDepth--
	g.assign(counter, g.binop(ir.OpAdd, g.readNamed(counter), g.constant(1)))
	g.r.Append(g.cur, ir.OpJump)
	g.r.AddEdge(g.cur, head)

	g.cur = exit
}

// stmtLockstepLoop advances two counters in lockstep — cyclic-congruence
// fodder for the optimistic mode.
func (g *generator) stmtLockstepLoop() {
	g.loopSeq++
	counter := fmt.Sprintf("c%d", g.loopSeq)
	shadow := fmt.Sprintf("s%d", g.loopSeq)
	trip := int64(2 + g.rng.Intn(4))
	g.assign(counter, g.constant(0))
	g.assign(shadow, g.constant(0))

	head := g.newBlock("h")
	body := g.newBlock("b")
	exit := g.newBlock("x")
	g.r.Append(g.cur, ir.OpJump)
	g.r.AddEdge(g.cur, head)

	g.cur = head
	cond := g.binop(ir.OpLt, g.readNamed(counter), g.constant(trip))
	g.r.Append(g.cur, ir.OpBranch, cond)
	g.r.AddEdge(g.cur, body)
	g.r.AddEdge(g.cur, exit)

	g.cur = body
	g.assign(counter, g.binop(ir.OpAdd, g.readNamed(counter), g.constant(1)))
	g.assign(shadow, g.binop(ir.OpAdd, g.readNamed(shadow), g.constant(1)))
	g.r.Append(g.cur, ir.OpJump)
	g.r.AddEdge(g.cur, head)

	g.cur = exit
	// Their difference is 0 — discoverable only optimistically.
	g.assign(g.targetVar(), g.binop(ir.OpSub, g.readNamed(counter), g.readNamed(shadow)))
}

// stmtPartialRedundancy plants GVN-PRE fodder: an expression computed on
// a strict subset of a merge's incoming paths and recomputed after the
// merge. The operands are snapshot into fresh names that nothing inside
// the pattern reassigns, so the arm computation and the post-merge
// recomputation stay congruent through SSA construction. Three shapes:
//
//   - skip: a one-armed if whose fallthrough edge (branch block → join)
//     is critical — PRE must split it before inserting;
//   - half: a full diamond computing the expression on one arm only —
//     PRE inserts on the other arm (no split needed);
//   - both: both arms compute it — the join recomputation collapses to
//     a φ with no insertions at all.
func (g *generator) stmtPartialRedundancy() {
	g.preSeq++
	op := []ir.Op{ir.OpAdd, ir.OpSub, ir.OpMul}[g.rng.Intn(3)]
	a := fmt.Sprintf("pa%d", g.preSeq)
	b := fmt.Sprintf("pb%d", g.preSeq)
	out := fmt.Sprintf("po%d", g.preSeq)
	g.assign(a, g.genExpr(1))
	g.assign(b, g.readVar())
	compute := func() *ir.Instr {
		return g.binop(op, g.readNamed(a), g.readNamed(b))
	}
	cond := g.genCond()
	switch shape := g.rng.Intn(3); shape {
	case 0:
		// skip: the fallthrough edge g.cur→join is critical (the branch
		// block keeps two successors, join two predecessors).
		thenB := g.newBlock("t")
		join := g.newBlock("j")
		g.r.Append(g.cur, ir.OpBranch, cond)
		g.r.AddEdge(g.cur, thenB)
		g.r.AddEdge(g.cur, join)
		g.cur = thenB
		g.assign(out, compute())
		g.r.Append(g.cur, ir.OpJump)
		g.r.AddEdge(g.cur, join)
		g.cur = join
	default:
		thenB, elseB, join := g.openDiamond(cond)
		g.cur = thenB
		g.assign(out, compute())
		g.r.Append(g.cur, ir.OpJump)
		g.r.AddEdge(g.cur, join)
		g.cur = elseB
		if shape == 2 {
			g.assign(out, compute())
		} else {
			g.assign(out, g.constant(int64(g.rng.Intn(9)-4)))
		}
		g.r.Append(g.cur, ir.OpJump)
		g.r.AddEdge(g.cur, join)
		g.cur = join
	}
	// The partially redundant recomputation at the merge. Its definition
	// dominates everything that follows (the pattern only runs at the
	// routine's top level), so out may join the variable pool.
	g.assign(out, compute())
	g.vars = append(g.vars, out)
}

// stmtSwitch emits a switch over a variable with constant cases.
func (g *generator) stmtSwitch() {
	n := 2 + g.rng.Intn(3)
	sel := g.readVar()
	sw := g.r.Append(g.cur, ir.OpSwitch, sel)
	join := g.newBlock("j")
	var arms []*ir.Block
	for k := 0; k < n; k++ {
		sw.Block.Cases = append(sw.Block.Cases, int64(k))
		arms = append(arms, g.newBlock("a"))
	}
	arms = append(arms, g.newBlock("a")) // default
	for _, arm := range arms {
		g.r.AddEdge(sw.Block, arm)
	}
	out := g.targetVar()
	for k, arm := range arms {
		g.cur = arm
		g.assign(out, g.binop(ir.OpAdd, g.genExpr(1), g.constant(int64(k))))
		g.r.Append(g.cur, ir.OpJump)
		g.r.AddEdge(g.cur, join)
	}
	g.cur = join
}

// stmtIrreducible emits a bounded two-entry cycle: blocks a and b jump
// into each other and both are entered from outside, so neither dominates
// the other (a classic irreducible region). A fresh strictly-increasing
// counter guarantees termination.
func (g *generator) stmtIrreducible() {
	g.loopSeq++
	counter := fmt.Sprintf("c%d", g.loopSeq)
	bound := int64(4 + g.rng.Intn(6))
	g.assign(counter, g.constant(0))

	aBlk := g.newBlock("ia")
	bBlk := g.newBlock("ib")
	exit := g.newBlock("ix")
	cond := g.genCond()
	g.r.Append(g.cur, ir.OpBranch, cond)
	g.r.AddEdge(g.cur, aBlk)
	g.r.AddEdge(g.cur, bBlk)

	g.cur = aBlk
	g.assign(counter, g.binop(ir.OpAdd, g.readNamed(counter), g.constant(1)))
	g.stmtAssign()
	ca := g.binop(ir.OpGe, g.readNamed(counter), g.constant(bound))
	g.r.Append(g.cur, ir.OpBranch, ca)
	g.r.AddEdge(g.cur, exit)
	g.r.AddEdge(g.cur, bBlk)

	g.cur = bBlk
	g.assign(counter, g.binop(ir.OpAdd, g.readNamed(counter), g.constant(2)))
	g.stmtAssign()
	cb := g.binop(ir.OpGe, g.readNamed(counter), g.constant(bound))
	g.r.Append(g.cur, ir.OpBranch, cb)
	g.r.AddEdge(g.cur, exit)
	g.r.AddEdge(g.cur, aBlk)

	g.cur = exit
}
