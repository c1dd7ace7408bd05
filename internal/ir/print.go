package ir

import (
	"strconv"
	"strings"
)

// sprintInstr renders one instruction in the textual IR syntax.
func sprintInstr(i *Instr) string {
	var sb strings.Builder
	writeInstr(&sb, i)
	return sb.String()
}

func writeInstr(sb *strings.Builder, i *Instr) {
	if i.HasValue() {
		writeValueName(sb, i)
		sb.WriteString(" = ")
	}
	switch i.Op {
	case OpConst:
		sb.WriteString("const ")
		writeInt(sb, i.Const)
	case OpParam:
		sb.WriteString("param")
	case OpCopy, OpNeg, OpReturn:
		sb.WriteString(i.Op.String())
		sb.WriteByte(' ')
		writeArg(sb, i, 0)
	case OpAdd, OpSub, OpMul, OpDiv, OpMod, OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		sb.WriteString(i.Op.String())
		sb.WriteByte(' ')
		writeArg(sb, i, 0)
		sb.WriteString(", ")
		writeArg(sb, i, 1)
	case OpPhi:
		sb.WriteString("phi [")
		for k := range i.Args {
			if k > 0 {
				sb.WriteString(", ")
			}
			if i.Block != nil && k < len(i.Block.Preds) {
				sb.WriteString(i.Block.Preds[k].From.Name)
				sb.WriteString(": ")
			}
			writeArg(sb, i, k)
		}
		sb.WriteString("]")
	case OpCall:
		sb.WriteString("call ")
		sb.WriteString(i.Name)
		sb.WriteByte('(')
		for k := range i.Args {
			if k > 0 {
				sb.WriteString(", ")
			}
			writeArg(sb, i, k)
		}
		sb.WriteString(")")
	case OpVarRead:
		sb.WriteString("varread ")
		sb.WriteString(i.Name)
	case OpVarWrite:
		sb.WriteString("varwrite ")
		sb.WriteString(i.Name)
		sb.WriteString(", ")
		writeArg(sb, i, 0)
	case OpJump:
		sb.WriteString("goto ")
		sb.WriteString(succName(i, 0))
	case OpBranch:
		sb.WriteString("if ")
		writeArg(sb, i, 0)
		sb.WriteString(" goto ")
		sb.WriteString(succName(i, 0))
		sb.WriteString(" else ")
		sb.WriteString(succName(i, 1))
	case OpSwitch:
		sb.WriteString("switch ")
		writeArg(sb, i, 0)
		sb.WriteString(" [")
		for k, c := range i.Block.Cases {
			writeInt(sb, c)
			sb.WriteString(": ")
			sb.WriteString(succName(i, k))
			sb.WriteString(", ")
		}
		sb.WriteString("default: ")
		sb.WriteString(succName(i, len(i.Block.Cases)))
		sb.WriteByte(']')
	default:
		sb.WriteString(i.Op.String())
		sb.WriteString(" ?")
	}
}

// writeValueName writes i.ValueName() without building the string.
func writeValueName(sb *strings.Builder, i *Instr) {
	if i.Name != "" && i.Op != OpCall {
		sb.WriteString(i.Name)
		return
	}
	sb.WriteByte('v')
	writeInt(sb, int64(i.ID))
}

// writeArg writes the value name of operand k. It guards the slot too:
// rendering a malformed instruction (in a Verify error, say) must not
// panic on an understated arity.
func writeArg(sb *strings.Builder, i *Instr, k int) {
	if k >= len(i.Args) || i.Args[k] == nil {
		sb.WriteString("<nil>")
		return
	}
	writeValueName(sb, i.Args[k])
}

func writeInt(sb *strings.Builder, n int64) {
	var buf [20]byte
	sb.Write(strconv.AppendInt(buf[:0], n, 10))
}

func succName(i *Instr, k int) string {
	if i.Block == nil || k >= len(i.Block.Succs) {
		return "<nosucc>"
	}
	return i.Block.Succs[k].To.Name
}

// String renders the whole routine in the textual IR syntax accepted by
// package parser.
func (r *Routine) String() string {
	n := 0
	for _, b := range r.Blocks {
		n += len(b.Instrs)
	}
	var sb strings.Builder
	sb.Grow(32 + 28*n) // rendered routines average 24 bytes per instruction
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
			if i.Op == OpParam {
				continue // params are printed in the signature
			}
			sb.WriteString("  ")
			writeInstr(&sb, i)
			sb.WriteString("\n")
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}
