// Package interp is a reference interpreter for ir routines. It executes
// both the non-SSA variable form and SSA form, which makes it the oracle
// for differential testing: SSA construction, global value numbering and
// the optimizers must all preserve the interpreter-observable behaviour.
//
// Semantics (shared with constant folding in package expr, so compile-time
// and run-time evaluation always agree):
//   - all arithmetic is two's-complement int64 with wraparound;
//   - division and modulus by zero yield 0;
//   - comparisons yield 1 or 0;
//   - calls are pure deterministic functions of the callee name and the
//     argument values (an FNV-1a hash), so congruence of identical calls
//     on congruent arguments is sound;
//   - reading a never-written variable yields 0 (matching the zero that
//     SSA construction materializes for undefined reads).
package interp

import (
	"errors"
	"fmt"

	"pgvn/internal/ir"
)

// ErrStepLimit is returned when execution exceeds the step budget,
// typically because the routine loops forever on the given input.
var ErrStepLimit = errors.New("interp: step limit exceeded")

// Trace records what one execution did, for differential checks.
type Trace struct {
	// Return is the returned value.
	Return int64
	// Steps is the number of instructions executed.
	Steps int
	// Values holds, per value-producing instruction, the sequence of
	// values it produced, in execution order.
	Values map[*ir.Instr][]int64
	// Blocks counts how many times each block was entered, by block ID.
	Blocks map[int]int
	// Edges counts how many times each edge was taken.
	Edges map[*ir.Edge]int
}

// Run executes the routine on args and returns the returned value. It is
// the lightweight variant of RunTrace.
func Run(r *ir.Routine, args []int64, maxSteps int) (int64, error) {
	tr, err := run(r, args, maxSteps, false)
	if err != nil {
		return 0, err
	}
	return tr.Return, nil
}

// RunTrace executes the routine on args recording a full Trace.
func RunTrace(r *ir.Routine, args []int64, maxSteps int) (*Trace, error) {
	return run(r, args, maxSteps, true)
}

// CallResult is the pure function used for OpCall: an FNV-1a hash of the
// callee name and arguments, folded to int64. Exposed so tests can predict
// call results.
func CallResult(name string, args []int64) int64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * prime
	}
	for _, a := range args {
		for s := 0; s < 64; s += 8 {
			h = (h ^ (uint64(a) >> s & 0xff)) * prime
		}
	}
	return int64(h)
}

func run(r *ir.Routine, args []int64, maxSteps int, trace bool) (*Trace, error) {
	if len(args) != len(r.Params) {
		return nil, fmt.Errorf("interp: %s takes %d args, got %d", r.Name, len(r.Params), len(args))
	}
	tr := &Trace{}
	if trace {
		tr.Values = make(map[*ir.Instr][]int64)
		tr.Blocks = make(map[int]int)
		tr.Edges = make(map[*ir.Edge]int)
	}
	vals := make(map[*ir.Instr]int64) // current value of each SSA value
	vars := make(map[string]int64)    // non-SSA variable store
	for k, p := range r.Params {
		vals[p] = args[k]
		vars[p.Name] = args[k]
	}

	record := func(i *ir.Instr, v int64) {
		vals[i] = v
		if trace {
			tr.Values[i] = append(tr.Values[i], v)
		}
	}

	b := r.Entry()
	var cameFrom *ir.Edge
	steps := 0
	for {
		if trace {
			tr.Blocks[b.ID]++
		}
		// φs read their operands w.r.t. the values on entry to the
		// block; evaluate them as a parallel copy.
		phis := b.Phis()
		if len(phis) > 0 {
			if cameFrom == nil {
				return nil, fmt.Errorf("interp: φ in entry block %s", b.Name)
			}
			tmp := make([]int64, len(phis))
			for k, phi := range phis {
				a := phi.Args[cameFrom.InIndex()]
				tmp[k] = vals[a]
			}
			for k, phi := range phis {
				record(phi, tmp[k])
				steps++
			}
		}
		for _, i := range b.Instrs[len(phis):] {
			steps++
			if steps > maxSteps {
				return nil, ErrStepLimit
			}
			a := func(k int) int64 { return vals[i.Args[k]] }
			switch i.Op {
			case ir.OpConst:
				record(i, i.Const)
			case ir.OpParam:
				// already in vals
			case ir.OpCopy:
				record(i, a(0))
			case ir.OpNeg:
				record(i, -a(0))
			case ir.OpAdd:
				record(i, a(0)+a(1))
			case ir.OpSub:
				record(i, a(0)-a(1))
			case ir.OpMul:
				record(i, a(0)*a(1))
			case ir.OpDiv:
				if a(1) == 0 {
					record(i, 0)
				} else if a(0) == -1<<63 && a(1) == -1 {
					record(i, -1<<63) // wraparound, like the folder
				} else {
					record(i, a(0)/a(1))
				}
			case ir.OpMod:
				if a(1) == 0 {
					record(i, 0)
				} else if a(0) == -1<<63 && a(1) == -1 {
					record(i, 0)
				} else {
					record(i, a(0)%a(1))
				}
			case ir.OpEq:
				record(i, b2i(a(0) == a(1)))
			case ir.OpNe:
				record(i, b2i(a(0) != a(1)))
			case ir.OpLt:
				record(i, b2i(a(0) < a(1)))
			case ir.OpLe:
				record(i, b2i(a(0) <= a(1)))
			case ir.OpGt:
				record(i, b2i(a(0) > a(1)))
			case ir.OpGe:
				record(i, b2i(a(0) >= a(1)))
			case ir.OpCall:
				cargs := make([]int64, len(i.Args))
				for k := range i.Args {
					cargs[k] = a(k)
				}
				record(i, CallResult(i.Name, cargs))
			case ir.OpVarRead:
				record(i, vars[i.Name])
			case ir.OpVarWrite:
				vars[i.Name] = a(0)
			case ir.OpJump:
				cameFrom = b.Succs[0]
			case ir.OpBranch:
				if a(0) != 0 {
					cameFrom = b.Succs[0]
				} else {
					cameFrom = b.Succs[1]
				}
			case ir.OpSwitch:
				cameFrom = b.Succs[len(b.Cases)] // default
				for k, c := range b.Cases {
					if a(0) == c {
						cameFrom = b.Succs[k]
						break
					}
				}
			case ir.OpReturn:
				tr.Return = a(0)
				tr.Steps = steps
				return tr, nil
			default:
				return nil, fmt.Errorf("interp: cannot execute %v", i)
			}
		}
		if t := b.Terminator(); t == nil {
			return nil, fmt.Errorf("interp: block %s has no terminator", b.Name)
		}
		if trace {
			tr.Edges[cameFrom]++
		}
		b = cameFrom.To
	}
}

func b2i(v bool) int64 {
	if v {
		return 1
	}
	return 0
}
