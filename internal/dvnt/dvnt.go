// Package dvnt implements dominator-tree value numbering (the DVNT
// algorithm of Briggs, Cooper and Simpson, "Value Numbering", SP&E 1997 —
// reference [4] of the paper). It is deliberately an independent, much
// simpler engine than internal/core: a pessimistic, scoped-hash-table walk
// of the dominator tree with local constant folding.
//
// Its role in this repository is cross-validation: every congruence DVNT
// discovers must also be discovered by the paper's algorithm (which
// subsumes it), and must hold on real executions. The tests in this
// package and the comparison tests in internal/workload assert both.
package dvnt

import (
	"fmt"
	"math"

	"pgvn/internal/dom"
	"pgvn/internal/ir"
)

// Result maps every processed value to its value-number representative.
type Result struct {
	rep map[*ir.Instr]*ir.Instr
	cst map[*ir.Instr]int64
}

// ConstOf reports whether DVNT proved v a compile-time constant.
func (res *Result) ConstOf(v *ir.Instr) (int64, bool) {
	c, ok := res.cst[v]
	return c, ok
}

// Rep returns v's representative (v itself when nothing better is known).
func (res *Result) Rep(v *ir.Instr) *ir.Instr {
	if r, ok := res.rep[v]; ok {
		return r
	}
	return v
}

// Run value-numbers the routine, which must be in SSA form.
func Run(r *ir.Routine) (*Result, error) {
	if !r.IsSSA() {
		return nil, fmt.Errorf("dvnt: %s is not in SSA form", r.Name)
	}
	tree := dom.New(r)
	res := &Result{
		rep: make(map[*ir.Instr]*ir.Instr),
		cst: make(map[*ir.Instr]int64),
	}
	w := &walker{res: res, tree: tree}
	w.walk(r.Entry())
	return res, nil
}

type walker struct {
	res    *Result
	tree   *dom.Tree
	scopes []map[string]*ir.Instr
}

// lookup finds a key in the scope stack, innermost first.
func (w *walker) lookup(key string) *ir.Instr {
	for k := len(w.scopes) - 1; k >= 0; k-- {
		if v, ok := w.scopes[k][key]; ok {
			return v
		}
	}
	return nil
}

func (w *walker) insert(key string, v *ir.Instr) {
	w.scopes[len(w.scopes)-1][key] = v
}

// argKey renders an operand by its representative (vN) or constant (cN).
func (w *walker) argKey(a *ir.Instr) string {
	if c, ok := w.res.cst[a]; ok {
		return fmt.Sprintf("c%d", c)
	}
	return fmt.Sprintf("v%d", w.res.Rep(a).ID)
}

func (w *walker) walk(b *ir.Block) {
	w.scopes = append(w.scopes, map[string]*ir.Instr{})

	phis := b.Phis()
	for _, phi := range phis {
		w.numberPhi(phi, b)
	}
	for _, i := range b.Instrs[len(phis):] {
		if i.HasValue() {
			w.numberInstr(i)
		}
	}
	for _, c := range w.tree.Children(b) {
		w.walk(c)
	}
	w.scopes = w.scopes[:len(w.scopes)-1]
}

// numberPhi handles meaningless φs (all arguments share a value number)
// and redundant φs (an identical φ already numbered in this block).
func (w *walker) numberPhi(phi *ir.Instr, b *ir.Block) {
	w.res.rep[phi] = phi
	same := true
	var first *ir.Instr
	allKnown := true
	key := fmt.Sprintf("phi:b%d", b.ID)
	for _, a := range phi.Args {
		if _, ok := w.res.rep[a]; !ok {
			// Argument from an unprocessed predecessor (a back edge):
			// DVNT gives up on this φ (pessimism).
			allKnown = false
			break
		}
		rep := w.res.Rep(a)
		if first == nil {
			first = rep
		} else if rep != first {
			same = false
		}
		key += ":" + w.argKey(a)
	}
	if !allKnown {
		return
	}
	if same && first != nil {
		// Meaningless φ: congruent to its argument.
		w.res.rep[phi] = first
		if c, ok := w.res.cst[first]; ok {
			w.res.cst[phi] = c
		}
		return
	}
	if prev := w.lookup(key); prev != nil {
		w.res.rep[phi] = prev
		return
	}
	w.insert(key, phi)
}

func (w *walker) numberInstr(i *ir.Instr) {
	w.res.rep[i] = i

	// Constant folding over operand constants.
	if c, ok := w.foldConst(i); ok {
		w.res.cst[i] = c
		key := fmt.Sprintf("c%d", c)
		if prev := w.lookup(key); prev != nil {
			w.res.rep[i] = prev
		} else {
			w.insert(key, i)
		}
		return
	}

	// Structural hash over representatives, with commutative operand
	// ordering.
	a0, a1 := "", ""
	switch len(i.Args) {
	case 1:
		a0 = w.argKey(i.Args[0])
	case 2:
		a0, a1 = w.argKey(i.Args[0]), w.argKey(i.Args[1])
		if i.Op.IsCommutative() && a1 < a0 {
			a0, a1 = a1, a0
		}
	}
	var key string
	switch i.Op {
	case ir.OpParam:
		return // params are their own numbers
	case ir.OpCall:
		key = "call:" + i.Name
		for _, a := range i.Args {
			key += ":" + w.argKey(a)
		}
	case ir.OpConst:
		key = fmt.Sprintf("c%d", i.Const)
		w.res.cst[i] = i.Const
	case ir.OpCopy:
		w.res.rep[i] = w.res.Rep(i.Args[0])
		if c, ok := w.res.cst[i.Args[0]]; ok {
			w.res.cst[i] = c
		}
		return
	default:
		key = fmt.Sprintf("%s:%s:%s", i.Op, a0, a1)
	}
	if prev := w.lookup(key); prev != nil {
		w.res.rep[i] = prev
		if c, ok := w.res.cst[prev]; ok {
			w.res.cst[i] = c
		}
		return
	}
	w.insert(key, i)
}

// foldConst evaluates i when all operands are known constants, using the
// shared arithmetic semantics.
func (w *walker) foldConst(i *ir.Instr) (int64, bool) {
	if i.Op == ir.OpConst {
		return i.Const, true
	}
	if i.Op == ir.OpCall || len(i.Args) == 0 {
		return 0, false
	}
	args := make([]int64, len(i.Args))
	for k, a := range i.Args {
		c, ok := w.res.cst[a]
		if !ok {
			if a.Op == ir.OpConst {
				c = a.Const
			} else {
				return 0, false
			}
		}
		args[k] = c
	}
	b2i := func(v bool) int64 {
		if v {
			return 1
		}
		return 0
	}
	switch i.Op {
	case ir.OpCopy:
		return args[0], true
	case ir.OpNeg:
		return -args[0], true
	case ir.OpAdd:
		return args[0] + args[1], true
	case ir.OpSub:
		return args[0] - args[1], true
	case ir.OpMul:
		return args[0] * args[1], true
	case ir.OpDiv:
		if args[1] == 0 {
			return 0, true
		}
		if args[0] == math.MinInt64 && args[1] == -1 {
			return math.MinInt64, true
		}
		return args[0] / args[1], true
	case ir.OpMod:
		if args[1] == 0 {
			return 0, true
		}
		if args[0] == math.MinInt64 && args[1] == -1 {
			return 0, true
		}
		return args[0] % args[1], true
	case ir.OpEq:
		return b2i(args[0] == args[1]), true
	case ir.OpNe:
		return b2i(args[0] != args[1]), true
	case ir.OpLt:
		return b2i(args[0] < args[1]), true
	case ir.OpLe:
		return b2i(args[0] <= args[1]), true
	case ir.OpGt:
		return b2i(args[0] > args[1]), true
	case ir.OpGe:
		return b2i(args[0] >= args[1]), true
	}
	return 0, false
}
