package core

import (
	"fmt"
	"sort"
	"strings"

	"pgvn/internal/expr"
	"pgvn/internal/ir"
	"pgvn/internal/slab"
)

// Result holds the outcome of global value numbering: reachability of
// blocks and edges, the congruence partition, class leaders and constants,
// plus the work statistics. It answers queries but does not modify the
// routine; package opt turns a Result into transformations.
type Result struct {
	// Routine is the analyzed routine.
	Routine *ir.Routine
	// Config is the configuration the analysis ran with.
	Config Config
	// Stats records the work performed.
	Stats Stats

	blockReach []bool
	edgeReach  map[*ir.Edge]bool
	classOf    []*class
	rank       []int32
	byID       []*ir.Instr
	blockPred  []*expr.Expr
	canonical  [][]*ir.Edge
	slabs      *slabs
	ws         *Workspace // RunIn's workspace, nil for Run
}

// slabs is the chunk set of one analysis: the expression universe's node
// and payload chunks and the congruence classes' class and member chunks.
// A Result owns its set until Release zeroes it and hands it back to the
// workspace that lent it, for the next analysis to carve from.
type slabs struct {
	expr    expr.Slabs
	classes slab.Chunks[class]
	members slab.Chunks[ir.InstrID]
}

// exprSet, classSet and memberSet return s's chunk sets, nil when s is.
func (s *slabs) exprSet() *expr.Slabs {
	if s == nil {
		return nil
	}
	return &s.expr
}

func (s *slabs) classSet() *slab.Chunks[class] {
	if s == nil {
		return nil
	}
	return &s.classes
}

func (s *slabs) memberSet() *slab.Chunks[ir.InstrID] {
	if s == nil {
		return nil
	}
	return &s.members
}

// Release declares r finished. For a RunIn Result, the universe's node,
// argument, term and factor chunks and the class and member chunks its
// run carved go back, cleared, to the workspace that lent them. Every
// field of r is dropped, so a query after Release panics rather than
// read recycled memory. Nothing derived from r — its predicates, class
// expressions, a Partition — may be used afterwards. A Run Result holds
// plain memory: releasing it only drops its fields.
func (r *Result) Release() {
	w, s := r.ws, r.slabs
	*r = Result{}
	if w == nil {
		return
	}
	s.expr.Clear()
	s.classes.Clear()
	s.members.Clear()
	w.slabs = s
}

// Workspace returns the workspace RunIn analyzed r in, nil for a Run
// Result. opt and pre build their trees and tables in it.
func (r *Result) Workspace() *Workspace { return r.ws }

// result packages the analysis state. The fixpoint stores per-edge state
// densely by arena edge id; the public Result keeps an edge-keyed
// reachability map (and pointer-valued canonical orders) because its
// consumers (package opt) mutate the CFG while querying, which would
// invalidate dense indices. The map is built once here, holding only
// true entries.
func (a *analysis) result() *Result {
	ar := a.ar
	nReach := 0
	for e := 0; e < ar.NumEdges(); e++ {
		if a.edgeReach[e] {
			nReach++
		}
	}
	edgeReach := make(map[*ir.Edge]bool, nReach)
	for _, b := range a.routine.Blocks {
		base := ar.PredStart(uint32(b.ID))
		for k, e := range b.Preds {
			if a.edgeReach[base+uint32(k)] {
				edgeReach[e] = true
			}
		}
	}
	canonical := make([][]*ir.Edge, len(a.canonical))
	for bid, ids := range a.canonical {
		if ids == nil {
			continue
		}
		es := make([]*ir.Edge, len(ids))
		for k, eid := range ids {
			es[k] = ar.EdgePtr(eid)
		}
		canonical[bid] = es
	}
	return &Result{
		Routine:    a.routine,
		Config:     a.cfg,
		Stats:      a.stats,
		blockReach: a.blockReach,
		edgeReach:  edgeReach,
		classOf:    a.classOf,
		rank:       a.rank,
		byID:       a.byID,
		blockPred:  a.blockPred,
		canonical:  canonical,
		slabs:      a.slabs,
	}
}

// BlockReachable reports whether the analysis proved b reachable.
func (r *Result) BlockReachable(b *ir.Block) bool { return r.blockReach[b.ID] }

// EdgeReachable reports whether the analysis proved e reachable.
func (r *Result) EdgeReachable(e *ir.Edge) bool {
	if r.edgeReach == nil {
		panic(errReleased)
	}
	return r.edgeReach[e]
}

// errReleased is what a query on a released Result panics with.
const errReleased = "core: query on a released Result"

// class returns v's congruence class, or nil for undetermined values and
// for instructions created after the analysis ran.
func (r *Result) class(v *ir.Instr) *class {
	if v.ID >= len(r.classOf) {
		if r.classOf == nil {
			panic(errReleased)
		}
		return nil
	}
	return r.classOf[v.ID]
}

// ValueReachable reports whether value v was ever determined: values left
// in the INITIAL class are unreachable (paper §2.2).
func (r *Result) ValueReachable(v *ir.Instr) bool { return r.class(v) != nil }

// Congruent reports whether two values are in the same congruence class.
// Undetermined (unreachable) values are congruent to nothing, not even
// themselves.
func (r *Result) Congruent(a, b *ir.Instr) bool {
	ca, cb := r.class(a), r.class(b)
	return ca != nil && ca == cb
}

// ConstValue reports whether v is congruent to a compile-time constant,
// and if so which.
func (r *Result) ConstValue(v *ir.Instr) (int64, bool) {
	c := r.class(v)
	if c == nil || c.leaderConst == nil {
		return 0, false
	}
	return c.leaderConst.C, true
}

// Leader returns the representative value of v's congruence class (the
// lowest-ranking member elected by the analysis), or nil for undetermined
// values. When the class is constant the leader is still a member value;
// use ConstValue for the constant itself.
func (r *Result) Leader(v *ir.Instr) *ir.Instr {
	c := r.class(v)
	if c == nil {
		return nil
	}
	return r.byID[c.leaderVal]
}

// ClassMembers returns the members of v's class sorted by instruction ID,
// or nil for undetermined values.
func (r *Result) ClassMembers(v *ir.Instr) []*ir.Instr {
	c := r.class(v)
	if c == nil {
		return nil
	}
	ids := append([]ir.InstrID(nil), c.members...)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([]*ir.Instr, len(ids))
	for k, id := range ids {
		out[k] = r.byID[id]
	}
	return out
}

// Counts are the per-routine strength metrics the paper's Figures 10–12
// compare: more unreachable values is better, more constant values is
// better, fewer congruence classes is better. Following §5, unreachable
// values are counted as constant values too, correcting for constants that
// are discovered to be unreachable.
type Counts struct {
	// UnreachableValues is the number of value-producing instructions
	// proven unreachable (left in INITIAL or in unreachable blocks).
	UnreachableValues int
	// ConstantValues is the number of values congruent to a constant,
	// plus the unreachable values (the paper's correction).
	ConstantValues int
	// Classes is the number of distinct congruence classes among
	// determined values.
	Classes int
	// Values is the total number of value-producing instructions.
	Values int
}

// Count computes the strength metrics of the analysis.
func (r *Result) Count() Counts {
	var c Counts
	// A class is counted at its leader's id: every class has its own
	// leader, which is one of its members.
	seen := make([]bool, len(r.classOf))
	r.Routine.Instrs(func(i *ir.Instr) {
		if !i.HasValue() {
			return
		}
		c.Values++
		cl := r.class(i)
		if cl == nil || !r.blockReach[i.Block.ID] {
			c.UnreachableValues++
			c.ConstantValues++ // §5's correction
			return
		}
		if cl.leaderConst != nil {
			c.ConstantValues++
		}
		if !seen[cl.leaderVal] {
			seen[cl.leaderVal] = true
			c.Classes++
		}
	})
	return c
}

// Dump renders the partition for debugging: one line per congruence class
// with leader, expression and members, plus unreachable blocks.
func (r *Result) Dump() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "gvn %s (%s):\n", r.Routine.Name, r.Config.Mode)
	seen := make(map[*class]bool)
	r.Routine.Instrs(func(i *ir.Instr) {
		if !i.HasValue() {
			return
		}
		c := r.class(i)
		if c == nil || seen[c] {
			return
		}
		seen[c] = true
		names := make([]string, 0, len(c.members))
		for _, m := range r.ClassMembers(i) {
			names = append(names, m.ValueName())
		}
		lead := "?"
		if c.leaderConst != nil {
			lead = fmt.Sprint(c.leaderConst.C)
		} else if lv := r.byID[c.leaderVal]; lv != nil {
			lead = lv.ValueName()
		}
		exprStr := ""
		if c.expr != nil {
			exprStr = " expr=" + c.expr.Key()
		}
		fmt.Fprintf(&sb, "  class leader=%s%s members={%s}\n",
			lead, exprStr, strings.Join(names, ", "))
	})
	for _, b := range r.Routine.Blocks {
		if !r.blockReach[b.ID] {
			fmt.Fprintf(&sb, "  unreachable block %s\n", b.Name)
		}
	}
	return sb.String()
}

// ReturnConst reports whether every reachable return in the routine
// returns the same compile-time constant, and which (the Figure 1 headline
// query: routine R is guaranteed to always return 1).
func (r *Result) ReturnConst() (int64, bool) {
	var val int64
	found := false
	for _, b := range r.Routine.Blocks {
		if !r.blockReach[b.ID] {
			continue
		}
		t := b.Terminator()
		if t == nil || t.Op != ir.OpReturn {
			continue
		}
		c, ok := r.ConstValue(t.Args[0])
		if !ok {
			return 0, false
		}
		if found && c != val {
			return 0, false
		}
		val, found = c, true
	}
	return val, found
}

// PredicateInfo returns the raw φ-predication state of block b: the
// block predicate expression and the CANONICAL incoming-edge order it
// was built over, both nil when none was computed. It exists for the
// verification layer (internal/check), which validates the bookkeeping
// invariants — the predicate and order are set together, and the order
// exactly enumerates the reachable incoming edges.
func (r *Result) PredicateInfo(b *ir.Block) (*expr.Expr, []*ir.Edge) {
	return r.blockPred[b.ID], r.canonical[b.ID]
}

// DOT renders the analyzed routine's CFG in GraphViz dot syntax with
// analysis overlays: blocks the analysis proved unreachable are filled
// gray.
func (r *Result) DOT() string {
	return r.Routine.DOT(func(b *ir.Block) string {
		if !r.BlockReachable(b) {
			return `,fillcolor="gray85",style=filled`
		}
		return ""
	})
}
