// Package opt applies the results of global value numbering to a routine:
// unreachable code elimination, constant propagation, copy propagation and
// dominator-based redundancy elimination, followed by dead code
// elimination. These are the optimizations the paper lists as consumers of
// the GVN partition (§2).
//
// All transformations preserve the interpreter-observable behaviour of the
// routine; the differential tests in this package and in internal/workload
// check that on random inputs.
package opt

import (
	"fmt"

	"pgvn/internal/core"
	"pgvn/internal/dom"
	"pgvn/internal/ir"
	"pgvn/internal/obs"
	"pgvn/internal/opt/pre"
)

// Stats reports what Apply changed.
type Stats struct {
	// BlocksRemoved counts unreachable blocks deleted.
	BlocksRemoved int
	// EdgesRemoved counts unreachable edges deleted.
	EdgesRemoved int
	// ConstantsPropagated counts values rewritten to constants.
	ConstantsPropagated int
	// RedundanciesReplaced counts uses redirected to class leaders.
	RedundanciesReplaced int
	// InstrsRemoved counts dead instructions deleted.
	InstrsRemoved int
	// BlocksSimplified counts blocks removed by control-flow
	// simplification (forwarding-block bypass and straight-line merge).
	BlocksSimplified int
	// PRE reports the GVN-PRE pass's work (zero unless Options.PRE).
	PRE pre.Stats
}

// Options configures ApplyWith's pass pipeline.
type Options struct {
	// PRE enables the GVN-PRE pass (internal/opt/pre) between
	// redundancy elimination and dead-code elimination, so classic
	// elimination has already collected the dominated redundancies and
	// DCE collects what PRE's φs replace.
	PRE bool
	// Span, when non-nil, parents one child span per pass ("opt.<pass>")
	// so traces descend from the driver's opt stage to individual
	// passes. Nil-safe: a nil span is the no-op tracer.
	Span *obs.Span
	// Verify, when non-nil, is the pass-sandwich hook around PRE: it is
	// called with "pre-input" immediately before the pass and with
	// "pre" immediately after it, and a non-nil error aborts the
	// pipeline. The driver wires check.PassSandwich here (structural
	// verification plus the independent dominance re-verification PRE's
	// edge splitting demands).
	Verify func(pass string) error
}

// Optimize runs global value numbering with the given configuration and
// applies every enabled transformation. It returns the GVN result and the
// transformation statistics.
func Optimize(r *ir.Routine, cfg core.Config) (*core.Result, Stats, error) {
	res, err := core.Run(r, cfg)
	if err != nil {
		return nil, Stats{}, err
	}
	st, err := Apply(res)
	return res, st, err
}

// Apply transforms the analyzed routine in place using the GVN result,
// running the default pipeline (no PRE, no spans, no sandwich checks).
// When the analysis ran with a tracer (core.Config.Trace), the rewrites
// are traced too: per-value events for constant propagation and
// redundancy elimination, per-block events for unreachable-code removal,
// and aggregate counts for DCE and CFG simplification.
func Apply(res *core.Result) (Stats, error) {
	return ApplyWith(res, Options{})
}

// ApplyWith transforms the analyzed routine in place, running the pass
// pipeline configured by o. Pass order is fixed: unreachable-code
// elimination, constant propagation, redundancy elimination, GVN-PRE
// (when enabled), dead-code elimination, CFG simplification.
func ApplyWith(res *core.Result, o Options) (Stats, error) {
	var st Stats
	r := res.Routine
	tr := res.Config.Trace
	pass := func(name string, f func() error) error {
		s := o.Span.StartChild("opt." + name)
		defer s.End()
		return f()
	}
	pass("unreachable", func() error {
		st.BlocksRemoved, st.EdgesRemoved = EliminateUnreachable(res)
		return nil
	})
	pass("constprop", func() error {
		st.ConstantsPropagated = PropagateConstants(res)
		return nil
	})
	pass("redundancy", func() error {
		st.RedundanciesReplaced = EliminateRedundancies(res)
		return nil
	})
	if o.PRE {
		if o.Verify != nil {
			if err := o.Verify("pre-input"); err != nil {
				return st, err
			}
		}
		if err := pass("pre", func() error {
			var err error
			st.PRE, err = pre.Run(res, pre.Options{Tracer: tr})
			return err
		}); err != nil {
			return st, fmt.Errorf("opt: pre: %w", err)
		}
		if o.Verify != nil {
			if err := o.Verify("pre"); err != nil {
				return st, err
			}
		}
	}
	pass("dce", func() error {
		st.InstrsRemoved = EliminateDeadCode(r)
		return nil
	})
	pass("simplifycfg", func() error {
		st.BlocksSimplified = SimplifyCFG(r)
		return nil
	})
	if tr != nil {
		tr.Emit(obs.KindOptDeadCode, 0, -1, -1, int64(st.InstrsRemoved), "")
		tr.Emit(obs.KindOptCFGSimplified, 0, -1, -1, int64(st.BlocksSimplified), "")
	}
	if err := r.VerifyIn(res.Workspace().IR()); err != nil {
		return st, fmt.Errorf("opt: routine broken after optimization: %w", err)
	}
	return st, nil
}

// EliminateUnreachable removes edges and blocks the analysis proved
// unreachable, rewrites branches and switches left with a single successor
// into jumps, and folds single-argument φs. It returns the number of
// blocks and edges removed.
func EliminateUnreachable(res *core.Result) (blocks, edges int) {
	r := res.Routine
	// Remove unreachable out-edges of reachable blocks.
	for _, b := range r.Blocks {
		if !res.BlockReachable(b) {
			continue
		}
		for k := len(b.Succs) - 1; k >= 0; k-- {
			e := b.Succs[k]
			if !res.EdgeReachable(e) {
				r.RemoveEdge(e)
				edges++
			}
		}
		simplifyTerminator(r, b)
	}
	// Disconnect and delete unreachable blocks.
	var dead []*ir.Block
	for _, b := range r.Blocks {
		if !res.BlockReachable(b) {
			dead = append(dead, b)
		}
	}
	for _, b := range dead {
		for len(b.Succs) > 0 {
			r.RemoveEdge(b.Succs[0])
			edges++
		}
		for len(b.Preds) > 0 {
			r.RemoveEdge(b.Preds[0])
			edges++
		}
	}
	for _, b := range dead {
		if tr := res.Config.Trace; tr != nil {
			tr.Emit(obs.KindOptBlockRemoved, 0, b.ID, -1, 0, b.Name)
		}
		r.RemoveBlock(b)
		blocks++
	}
	// Fold φs left with a single argument.
	for _, b := range r.Blocks {
		for _, phi := range append([]*ir.Instr(nil), b.Phis()...) {
			if len(phi.Args) == 1 {
				arg := phi.Args[0]
				phi.ReplaceUses(arg)
				r.RemoveInstr(phi)
			}
		}
	}
	return blocks, edges
}

// simplifyTerminator rewrites a branch or switch whose outgoing edges have
// collapsed to one into an unconditional jump.
func simplifyTerminator(r *ir.Routine, b *ir.Block) {
	term := b.Terminator()
	if term == nil {
		return
	}
	switch term.Op {
	case ir.OpBranch:
		if len(b.Succs) == 1 {
			term.SetArg(0, nil)
			term.Args = nil
			term.Op = ir.OpJump
		}
	case ir.OpSwitch:
		if len(b.Succs) == 1 {
			term.SetArg(0, nil)
			term.Args = nil
			b.Cases = nil
			term.Op = ir.OpJump
		}
	}
}

// PropagateConstants rewrites every value congruent to a constant into a
// direct reference to one materialized constant per class (placed in the
// entry block, which dominates all uses). Values that already are the
// right constant are left alone. It returns the number of values
// rewritten.
func PropagateConstants(res *core.Result) int {
	r := res.Routine
	made := map[int64]*ir.Instr{}
	count := 0
	constFor := func(c int64) *ir.Instr {
		if ci := made[c]; ci != nil {
			return ci
		}
		entry := r.Entry()
		pos := len(r.Params)
		var ci *ir.Instr
		if pos < len(entry.Instrs) {
			ci = r.InsertBefore(entry.Instrs[pos], ir.OpConst)
		} else {
			ci = r.Append(entry, ir.OpConst)
		}
		ci.Const = c
		made[c] = ci
		return ci
	}
	// Collect targets first: rewriting while iterating would confuse the
	// traversal.
	type job struct {
		v *ir.Instr
		c int64
	}
	var jobs []job
	r.Instrs(func(i *ir.Instr) {
		if !i.HasValue() || i.Op == ir.OpParam {
			return
		}
		if c, ok := res.ConstValue(i); ok {
			if i.Op == ir.OpConst && i.Const == c {
				return
			}
			jobs = append(jobs, job{i, c})
		}
	})
	for _, j := range jobs {
		if j.v.NumUses() == 0 {
			continue // dead; DCE will remove it
		}
		if tr := res.Config.Trace; tr != nil {
			tr.Emit(obs.KindOptConst, 0, j.v.Block.ID, j.v.ID, j.c, "")
		}
		j.v.ReplaceUses(constFor(j.c))
		count++
	}
	return count
}

// EliminateRedundancies redirects uses of every value to its congruence
// class leader whenever the leader's definition strictly precedes the
// value's definition in the dominator order (classic GVN-based redundancy
// elimination / copy propagation). It returns the number of values whose
// uses were redirected.
func EliminateRedundancies(res *core.Result) int {
	r := res.Routine
	tree := dom.NewIn(res.Workspace().Dom(), r)
	// pos is each instruction's index in its block, by instruction id.
	pos := make([]int32, r.NumInstrIDs())
	for _, b := range r.Blocks {
		for k, i := range b.Instrs {
			pos[i.ID] = int32(k)
		}
	}
	precedes := func(a, b *ir.Instr) bool {
		if a.Block == b.Block {
			return pos[a.ID] < pos[b.ID]
		}
		return tree.StrictlyDominates(a.Block, b.Block)
	}
	count := 0
	r.Instrs(func(i *ir.Instr) {
		if !i.HasValue() || i.NumUses() == 0 {
			return
		}
		leader := res.Leader(i)
		if leader == nil || leader == i {
			return
		}
		// The leader may have been deleted by unreachable-code removal
		// or rewritten; only use it if it still defines a value here.
		if leader.Block == nil || leader.Block.Routine != r {
			return
		}
		if precedes(leader, i) {
			if tr := res.Config.Trace; tr != nil {
				tr.Emit(obs.KindOptRedundant, 0, i.Block.ID, i.ID, int64(leader.ID), "")
			}
			i.ReplaceUses(leader)
			count++
		}
	})
	return count
}

// EliminateDeadCode removes pure value-producing instructions that no
// terminator transitively needs (parameters excluded). Liveness is
// mark-and-sweep from terminator operands, so webs of φs that only feed
// each other around a loop die too. It returns the number of instructions
// removed.
func EliminateDeadCode(r *ir.Routine) int {
	live := make([]bool, r.NumInstrIDs()) // by instruction id
	var mark func(i *ir.Instr)
	mark = func(i *ir.Instr) {
		if live[i.ID] {
			return
		}
		live[i.ID] = true
		for _, a := range i.Args {
			mark(a)
		}
	}
	r.Instrs(func(i *ir.Instr) {
		if i.Op.IsTerminator() {
			for _, a := range i.Args {
				mark(a)
			}
		}
	})
	var dead []*ir.Instr
	r.Instrs(func(i *ir.Instr) {
		if i.HasValue() && i.Op != ir.OpParam && !live[i.ID] {
			dead = append(dead, i)
		}
	})
	// Detach all dead instructions from each other before removal (a dead
	// φ web has internal uses in arbitrary order).
	for _, i := range dead {
		for k := range i.Args {
			i.SetArg(k, nil)
		}
	}
	for _, i := range dead {
		r.RemoveInstr(i)
	}
	return len(dead)
}
