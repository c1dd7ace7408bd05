package core

import (
	"strconv"
	"strings"

	"pgvn/internal/expr"
	"pgvn/internal/ir"
)

// Explain returns a human-readable account of what the analysis concluded
// about value v: reachability, constancy, the class leader and members,
// and the defining expression rendered over source-level value names.
//
// The replay path (gvnopt -explain walks every value of every routine)
// renders with direct builder writes and strconv — no fmt — so explain
// output on a large corpus does not pay reflection or interface-boxing
// costs per value.
func (r *Result) Explain(v *ir.Instr) string {
	var sb strings.Builder
	sb.WriteString(v.ValueName())
	sb.WriteString(" (in ")
	sb.WriteString(v.Block.Name)
	sb.WriteString("): ")
	c := r.class(v)
	switch {
	case !r.blockReach[v.Block.ID]:
		sb.WriteString("in an unreachable block\n")
		return sb.String()
	case c == nil:
		sb.WriteString("undetermined — never reached by the analysis\n")
		return sb.String()
	}
	if cv, ok := r.ConstValue(v); ok {
		sb.WriteString("compile-time constant ")
		sb.WriteString(strconv.FormatInt(cv, 10))
		sb.WriteByte('\n')
	} else {
		sb.WriteString("congruence class led by ")
		sb.WriteString(r.byID[c.leaderVal].ValueName())
		sb.WriteByte('\n')
	}
	if len(c.members) > 1 {
		sb.WriteString("  congruent values: ")
		for k, m := range r.ClassMembers(v) {
			if k > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(m.ValueName())
		}
		sb.WriteByte('\n')
	}
	if c.expr != nil {
		sb.WriteString("  defining expression: ")
		r.renderExpr(&sb, c.expr)
		sb.WriteByte('\n')
	}
	return sb.String()
}

// writeName writes the source-level name of value id, falling back to the
// internal "v<id>" spelling for ids with no surviving instruction.
func (r *Result) writeName(sb *strings.Builder, id int) {
	if id >= 0 && id < len(r.byID) && r.byID[id] != nil {
		sb.WriteString(r.byID[id].ValueName())
		return
	}
	sb.WriteByte('v')
	sb.WriteString(strconv.Itoa(id))
}

func (r *Result) renderExpr(sb *strings.Builder, e *expr.Expr) {
	switch e.Kind {
	case expr.Bottom:
		sb.WriteString("⊥")
	case expr.Const:
		sb.WriteString(strconv.FormatInt(e.C, 10))
	case expr.Value:
		r.writeName(sb, int(e.C))
	case expr.Unique:
		sb.WriteString("unique(")
		r.writeName(sb, int(e.C))
		sb.WriteByte(')')
	case expr.BlockTag:
		sb.WriteString("block#")
		sb.WriteString(strconv.FormatInt(e.C, 10))
	case expr.Sum:
		for i, t := range e.Terms {
			if i > 0 {
				sb.WriteString(" + ")
			}
			if len(t.Factors) == 0 {
				sb.WriteString(strconv.FormatInt(t.Coeff, 10))
				continue
			}
			if t.Coeff != 1 {
				sb.WriteString(strconv.FormatInt(t.Coeff, 10))
				sb.WriteString("·")
			}
			for j, f := range t.Factors {
				if j > 0 {
					sb.WriteString("·")
				}
				r.writeName(sb, f.ID)
			}
		}
	case expr.Compare:
		sb.WriteByte('(')
		r.renderExpr(sb, e.Args[0])
		sb.WriteByte(' ')
		sb.WriteString(compareSymbol(e.Op))
		sb.WriteByte(' ')
		r.renderExpr(sb, e.Args[1])
		sb.WriteByte(')')
	case expr.Phi:
		sb.WriteString("φ[")
		r.renderExpr(sb, e.Args[0])
		sb.WriteString("](")
		for i, a := range e.Args[1:] {
			if i > 0 {
				sb.WriteString(", ")
			}
			r.renderExpr(sb, a)
		}
		sb.WriteByte(')')
	case expr.And, expr.Or:
		sep := " ∧ "
		if e.Kind == expr.Or {
			sep = " ∨ "
		}
		sb.WriteByte('(')
		for i, a := range e.Args {
			if i > 0 {
				sb.WriteString(sep)
			}
			r.renderExpr(sb, a)
		}
		sb.WriteByte(')')
	case expr.Opaque:
		if e.Op == ir.OpCall {
			sb.WriteString(e.Name)
		} else {
			sb.WriteString(e.Op.String())
		}
		sb.WriteByte('(')
		for i, a := range e.Args {
			if i > 0 {
				sb.WriteString(", ")
			}
			r.renderExpr(sb, a)
		}
		sb.WriteByte(')')
	default:
		sb.WriteString(e.Key())
	}
}

func compareSymbol(op ir.Op) string {
	switch op {
	case ir.OpEq:
		return "="
	case ir.OpNe:
		return "≠"
	case ir.OpLt:
		return "<"
	case ir.OpLe:
		return "≤"
	case ir.OpGt:
		return ">"
	case ir.OpGe:
		return "≥"
	}
	return op.String()
}
