package workload

import (
	"fmt"
	"strconv"
	"strings"

	"pgvn/internal/ir"
)

// SourceText renders a pre-SSA routine in the surface syntax accepted by
// package parser. ir.Routine.String prints the internal instruction forms
// (`v3 = const 5`, `varwrite t0, v3`), which the parser's expression
// grammar does not accept; this renderer emits the assignment/expression
// dialect instead (`t0 = 5`), so generated corpora round-trip through
// gvnopt and the gvnd optimize endpoint.
//
// Consts, parameter references and variable reads are inlined at their use
// sites; every other value-producing instruction becomes an assignment to
// a fresh `v<ID>` temporary (re-parsed as a variable, which the SSA
// builder renames right back). The rendered program is therefore not
// instruction-for-instruction identical to the input routine — it is the
// same program re-expressed in surface syntax, deterministic for a given
// routine, and that is exactly what a text-based service round-trip needs.
//
// Routines must be in pre-SSA form (no φ); switch case constants must be
// non-negative, as the parser's case grammar only accepts integer
// literals. The generator satisfies both.
func SourceText(r *ir.Routine) string {
	var sb strings.Builder
	sb.WriteString("func ")
	sb.WriteString(r.Name)
	sb.WriteString("(")
	for k, p := range r.Params {
		if k > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(p.ValueName())
	}
	sb.WriteString(") {\n")
	for _, b := range r.Blocks {
		sb.WriteString(b.Name)
		sb.WriteString(":\n")
		for _, i := range b.Instrs {
			switch i.Op {
			case ir.OpParam, ir.OpConst, ir.OpVarRead:
				continue // inlined at use sites
			}
			sb.WriteString("  ")
			writeSourceStmt(&sb, i)
			sb.WriteString("\n")
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}

// CorpusSource renders a whole benchmark as one parseable compilation
// unit, routines separated by blank lines.
func CorpusSource(b Benchmark) string {
	var sb strings.Builder
	for k, r := range b.Routines {
		if k > 0 {
			sb.WriteString("\n")
		}
		sb.WriteString(SourceText(r))
	}
	return sb.String()
}

// sourceOps maps binary value ops to their surface operator tokens.
var sourceOps = map[ir.Op]string{
	ir.OpAdd: "+", ir.OpSub: "-", ir.OpMul: "*", ir.OpDiv: "/", ir.OpMod: "%",
	ir.OpEq: "==", ir.OpNe: "!=", ir.OpLt: "<", ir.OpLe: "<=", ir.OpGt: ">", ir.OpGe: ">=",
}

// sourceRef renders an operand reference: constants as literals, variable
// reads and parameters by name, and computed values by the v<ID> temporary
// their defining statement assigned.
func sourceRef(i *ir.Instr) string {
	switch i.Op {
	case ir.OpConst:
		return strconv.FormatInt(i.Const, 10)
	case ir.OpVarRead:
		return i.Name
	case ir.OpParam:
		return i.ValueName()
	default:
		return "v" + strconv.Itoa(i.ID)
	}
}

func writeSourceStmt(sb *strings.Builder, i *ir.Instr) {
	dst := "v" + strconv.Itoa(i.ID)
	switch i.Op {
	case ir.OpCopy:
		fmt.Fprintf(sb, "%s = %s", dst, sourceRef(i.Args[0]))
	case ir.OpNeg:
		fmt.Fprintf(sb, "%s = -(%s)", dst, sourceRef(i.Args[0]))
	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpMod,
		ir.OpEq, ir.OpNe, ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe:
		fmt.Fprintf(sb, "%s = (%s %s %s)", dst,
			sourceRef(i.Args[0]), sourceOps[i.Op], sourceRef(i.Args[1]))
	case ir.OpCall:
		fmt.Fprintf(sb, "%s = %s(", dst, i.Name)
		for k, a := range i.Args {
			if k > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(sourceRef(a))
		}
		sb.WriteString(")")
	case ir.OpVarWrite:
		fmt.Fprintf(sb, "%s = %s", i.Name, sourceRef(i.Args[0]))
	case ir.OpJump:
		fmt.Fprintf(sb, "goto %s", i.Block.Succs[0].To.Name)
	case ir.OpBranch:
		fmt.Fprintf(sb, "if %s goto %s else %s", sourceRef(i.Args[0]),
			i.Block.Succs[0].To.Name, i.Block.Succs[1].To.Name)
	case ir.OpSwitch:
		fmt.Fprintf(sb, "switch %s [", sourceRef(i.Args[0]))
		for k, c := range i.Block.Cases {
			fmt.Fprintf(sb, "%d: %s, ", c, i.Block.Succs[k].To.Name)
		}
		fmt.Fprintf(sb, "default: %s]", i.Block.Succs[len(i.Block.Cases)].To.Name)
	case ir.OpReturn:
		fmt.Fprintf(sb, "return %s", sourceRef(i.Args[0]))
	default:
		panic(fmt.Sprintf("workload: SourceText: unsupported op %s (SSA-form routine?)", i.Op))
	}
}
