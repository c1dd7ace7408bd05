package ir

// ParsePrinted inverts Routine.String: it parses the printed
// (mnemonic) textual form back into routines. It is compiled only into
// this package's tests, where it serves as an oracle that Print is
// lossless: the golden and equivalence tests compare printed text, so
// they can only see a change that Print renders. This is a different
// language from package parser's surface syntax (infix expressions,
// implicit varread/varwrite): the printed form names every instruction
// and spells ops as mnemonics.
//
// The printed form does not carry instruction IDs, block IDs or
// argument pointers, so reconstruction leans on the value-name
// protocol: a name of the shape v<N> is the print of an unnamed
// instruction with ID N and is mapped back to that ID; any other name
// is stored as Instr.Name. Routines whose printed value names are
// ambiguous (duplicate definitions, as in pre-SSA form where several
// varreads of x all print as x) are rejected. A successfully parsed
// routine prints byte-identically to its input.

import (
	"fmt"
	"strconv"
	"strings"
)

// ErrPrinted is wrapped by every error returned from ParsePrinted.
var ErrPrinted = fmt.Errorf("ir: malformed printed form")

// ParsePrinted parses one or more routines in Routine.String form,
// concatenated. It returns an error for any text it cannot reconstruct
// exactly; it never panics.
func ParsePrinted(text string) ([]*Routine, error) {
	lines := strings.Split(text, "\n")
	// A well-formed text ends with "}\n", leaving one empty trailing
	// element after the split.
	var routines []*Routine
	ln := 0
	for ln < len(lines) {
		if lines[ln] == "" {
			ln++
			continue
		}
		r, next, err := parsePrintedRoutine(lines, ln)
		if err != nil {
			return nil, err
		}
		routines = append(routines, r)
		ln = next
	}
	if len(routines) == 0 {
		return nil, fmt.Errorf("%w: no routines", ErrPrinted)
	}
	return routines, nil
}

// printedInstr is the parsed form of one instruction line before ids
// and argument pointers are resolved.
type printedInstr struct {
	def    string // value name; "" for void ops
	op     Op
	name   string   // Instr.Name: call callee or variable name
	args   []string // operand value names
	konst  int64    // OpConst
	cases  []int64  // OpSwitch
	labels []string // OpPhi predecessor labels, one per arg
	succs  []string // terminator targets, in successor order
}

// printedBlock is one parsed basic block.
type printedBlock struct {
	name   string
	instrs []printedInstr
}

// printedIDName reports whether name is the canonical print of an
// unnamed instruction ("v" + decimal ID, no leading zeros), and the ID.
func printedIDName(name string) (int, bool) {
	if len(name) < 2 || name[0] != 'v' {
		return 0, false
	}
	n, err := strconv.Atoi(name[1:])
	if err != nil || n < 0 || strconv.Itoa(n) != name[1:] {
		return 0, false
	}
	return n, true
}

var printedBinOps = map[string]Op{
	"add": OpAdd, "sub": OpSub, "mul": OpMul, "div": OpDiv, "mod": OpMod,
	"eq": OpEq, "ne": OpNe, "lt": OpLt, "le": OpLe, "gt": OpGt, "ge": OpGe,
}

// parsePrintedRoutine parses one routine starting at lines[ln] and
// returns it with the index of the first line after its closing brace.
func parsePrintedRoutine(lines []string, ln int) (*Routine, int, error) {
	errf := func(format string, args ...any) (*Routine, int, error) {
		return nil, 0, fmt.Errorf("%w: line %d: %s", ErrPrinted, ln+1, fmt.Sprintf(format, args...))
	}
	header := lines[ln]
	rest, ok := strings.CutPrefix(header, "func ")
	if !ok {
		return errf("expected func header, got %q", header)
	}
	rest, ok = strings.CutSuffix(rest, ") {")
	if !ok {
		return errf("malformed func header %q", header)
	}
	name, paramList, ok := strings.Cut(rest, "(")
	if !ok {
		return errf("malformed func header %q", header)
	}
	var params []string
	if paramList != "" {
		params = strings.Split(paramList, ", ")
	}
	ln++

	// Gather the block structure first; ids and pointers resolve after.
	var blocks []printedBlock
	for {
		if ln >= len(lines) {
			return errf("unterminated routine %s", name)
		}
		line := lines[ln]
		if line == "}" {
			ln++
			break
		}
		if body, isInstr := strings.CutPrefix(line, "  "); isInstr {
			if len(blocks) == 0 {
				return errf("instruction before first block label")
			}
			pi, err := parsePrintedInstr(body)
			if err != nil {
				return nil, 0, fmt.Errorf("%w: line %d: %v", ErrPrinted, ln+1, err)
			}
			blocks[len(blocks)-1].instrs = append(blocks[len(blocks)-1].instrs, pi)
		} else if label, isLabel := strings.CutSuffix(line, ":"); isLabel && label != "" && !strings.Contains(label, " ") {
			blocks = append(blocks, printedBlock{name: label})
		} else {
			return errf("unrecognized line %q", line)
		}
		ln++
	}
	if len(blocks) == 0 {
		return errf("routine %s has no blocks", name)
	}

	// Assign instruction ids: v<N> names pin N, everything else (named
	// values and void instructions) takes the next unclaimed id.
	const maxID = 1 << 30
	usedID := map[int]bool{}
	maxUsed := -1
	claim := func(def string) (int, bool, error) {
		if id, isID := printedIDName(def); isID {
			if id > maxID || usedID[id] {
				return 0, false, fmt.Errorf("instruction id %d out of range or duplicate", id)
			}
			usedID[id] = true
			if id > maxUsed {
				maxUsed = id
			}
			return id, true, nil
		}
		return 0, false, nil
	}
	type pinned struct {
		id  int
		set bool
	}
	paramIDs := make([]pinned, len(params))
	for k, p := range params {
		id, set, err := claim(p)
		if err != nil {
			return errf("param %s: %v", p, err)
		}
		paramIDs[k] = pinned{id, set}
	}
	instrIDs := make([][]pinned, len(blocks))
	for bi := range blocks {
		instrIDs[bi] = make([]pinned, len(blocks[bi].instrs))
		for ii, pi := range blocks[bi].instrs {
			if pi.def == "" {
				continue
			}
			id, set, err := claim(pi.def)
			if err != nil {
				return errf("%s: %v", pi.def, err)
			}
			instrIDs[bi][ii] = pinned{id, set}
		}
	}
	nextFree := maxUsed + 1
	fill := func(p *pinned) int {
		if !p.set {
			p.id, p.set = nextFree, true
			nextFree++
		}
		return p.id
	}

	// Materialize. Blocks take dense ids in order; block ids are not
	// part of the printed form, so any assignment reprints identically.
	r := &Routine{Name: name}
	r.Blocks = make([]*Block, len(blocks))
	blockByName := make(map[string]*Block, len(blocks))
	for bi, pb := range blocks {
		b := &Block{ID: bi, Name: pb.name, Routine: r}
		r.Blocks[bi] = b
		if blockByName[pb.name] != nil {
			return errf("duplicate block %s", pb.name)
		}
		blockByName[pb.name] = b
	}
	r.nextBlockID = len(blocks)

	defs := map[string]*Instr{}
	define := func(def string, i *Instr) error {
		if defs[def] != nil {
			return fmt.Errorf("value %s defined twice (pre-SSA text is ambiguous)", def)
		}
		defs[def] = i
		return nil
	}
	entry := r.Blocks[0]
	r.Params = make([]*Instr, 0, len(params))
	for k, pname := range params {
		p := &Instr{ID: fill(&paramIDs[k]), Op: OpParam, Block: entry}
		if !paramIDs[k].set || !isPrintedID(pname, p.ID) {
			p.Name = pname
		}
		entry.Instrs = append(entry.Instrs, p)
		r.Params = append(r.Params, p)
		if err := define(pname, p); err != nil {
			return errf("param %s: %v", pname, err)
		}
	}
	instrs := make([][]*Instr, len(blocks))
	for bi, pb := range blocks {
		b := r.Blocks[bi]
		instrs[bi] = make([]*Instr, len(pb.instrs))
		for ii := range pb.instrs {
			pi := &pb.instrs[ii]
			pinnedID := instrIDs[bi][ii].set
			i := &Instr{ID: fill(&instrIDs[bi][ii]), Op: pi.op, Block: b,
				Name: pi.name, Const: pi.konst}
			if pi.cases != nil {
				b.Cases = pi.cases
			}
			if pi.def != "" {
				// A non-v<N> def keeps its name; a v<N> def pinned the
				// id instead and prints from it. A call's Name is its
				// callee, so its value can only print by id.
				if pi.op == OpCall {
					if !pinnedID {
						return errf("call value %s must print by id", pi.def)
					}
				} else if !isPrintedID(pi.def, i.ID) {
					i.Name = pi.def
				}
				if err := define(pi.def, i); err != nil {
					return errf("%v", err)
				}
			}
			b.Instrs = append(b.Instrs, i)
			instrs[bi][ii] = i
		}
	}
	r.nextInstrID = nextFree

	// Wire arguments (forward references are legal in SSA text).
	for bi, pb := range blocks {
		for ii := range pb.instrs {
			pi := &pb.instrs[ii]
			i := instrs[bi][ii]
			if len(pi.args) > 0 {
				i.Args = make([]*Instr, len(pi.args))
			}
			for k, aname := range pi.args {
				a := defs[aname]
				if a == nil {
					return errf("%s refers to undefined value %s", i.ValueName(), aname)
				}
				i.Args[k] = a
				a.addUse(i)
			}
			if err := verifyArity(i); err != nil {
				return errf("%v", err)
			}
		}
	}

	// Edges, in terminator order per block, in block order. Built
	// directly (not via AddEdge, which would extend existing φs).
	for bi, pb := range blocks {
		b := r.Blocks[bi]
		for ii := range pb.instrs {
			for _, sname := range pb.instrs[ii].succs {
				to := blockByName[sname]
				if to == nil {
					return errf("edge to unknown block %s", sname)
				}
				e := &Edge{From: b, To: to, outIndex: len(b.Succs), inIndex: len(to.Preds)}
				b.Succs = append(b.Succs, e)
				to.Preds = append(to.Preds, e)
			}
		}
	}

	// The printed form orders φ inputs by predecessor slot, and the
	// original's slot order need not match edge-creation order here
	// (transformations reorder pred lists). The first φ's labels are
	// the authoritative slot order: permute the block's preds to match
	// (ties between same-named preds keep creation order), then hold
	// every φ in the block to the result.
	for bi, pb := range blocks {
		b := r.Blocks[bi]
		for ii := range pb.instrs {
			pi := &pb.instrs[ii]
			if pi.op != OpPhi {
				continue
			}
			if len(pi.labels) == len(b.Preds) {
				perm := make([]*Edge, 0, len(b.Preds))
				used := make([]bool, len(b.Preds))
				for _, lbl := range pi.labels {
					for k, e := range b.Preds {
						if !used[k] && e.From.Name == lbl {
							used[k] = true
							perm = append(perm, e)
							break
						}
					}
				}
				if len(perm) == len(b.Preds) {
					for k, e := range perm {
						e.inIndex = k
					}
					b.Preds = perm
				}
			}
			break
		}
		for ii := range pb.instrs {
			pi := &pb.instrs[ii]
			if pi.op != OpPhi {
				continue
			}
			if len(pi.labels) != len(b.Preds) {
				return errf("φ in %s has %d inputs, block has %d preds", b.Name, len(pi.labels), len(b.Preds))
			}
			for k, lbl := range pi.labels {
				if b.Preds[k].From.Name != lbl {
					return errf("φ input %d in %s labeled %s, pred is %s", k, b.Name, lbl, b.Preds[k].From.Name)
				}
			}
		}
	}
	return r, ln, nil
}

// isPrintedID reports whether name is exactly how id prints unnamed.
func isPrintedID(name string, id int) bool {
	n, ok := printedIDName(name)
	return ok && n == id
}

// parsePrintedInstr parses one instruction body (the line without its
// two-space indent).
func parsePrintedInstr(body string) (printedInstr, error) {
	var pi printedInstr
	rhs := body
	if def, rest, ok := strings.Cut(body, " = "); ok {
		if def == "" || strings.Contains(def, " ") {
			return pi, fmt.Errorf("malformed definition %q", body)
		}
		pi.def, rhs = def, rest
	}
	op, rest, _ := strings.Cut(rhs, " ")
	bad := func() (printedInstr, error) {
		return pi, fmt.Errorf("malformed %s instruction %q", op, body)
	}
	operand := func(s string) bool {
		return s != "" && !strings.ContainsAny(s, " ,[]()")
	}
	switch op {
	case "const":
		c, err := strconv.ParseInt(rest, 10, 64)
		if err != nil || strconv.FormatInt(c, 10) != rest {
			return bad()
		}
		pi.op, pi.konst = OpConst, c
	case "copy", "neg", "varread":
		if !operand(rest) {
			return bad()
		}
		switch op {
		case "copy":
			pi.op, pi.args = OpCopy, []string{rest}
		case "neg":
			pi.op, pi.args = OpNeg, []string{rest}
		case "varread":
			// ValueName prefers Instr.Name, so a varread always prints
			// its variable as the defined name too.
			if pi.def != rest {
				return bad()
			}
			pi.op, pi.name = OpVarRead, rest
		}
	case "varwrite":
		v, a, ok := strings.Cut(rest, ", ")
		if !ok || !operand(v) || !operand(a) {
			return bad()
		}
		pi.op, pi.name, pi.args = OpVarWrite, v, []string{a}
	case "phi":
		inner, ok := cutBrackets(rest)
		if !ok {
			return bad()
		}
		pi.op = OpPhi
		if inner == "" {
			break
		}
		for _, ent := range strings.Split(inner, ", ") {
			lbl, a, ok := strings.Cut(ent, ": ")
			if !ok || lbl == "" || !operand(a) {
				return bad()
			}
			pi.labels = append(pi.labels, lbl)
			pi.args = append(pi.args, a)
		}
	case "call":
		callee, argList, ok := strings.Cut(rest, "(")
		inner, closed := strings.CutSuffix(argList, ")")
		if !ok || !closed || callee == "" || strings.ContainsAny(callee, " ,[]()") {
			return bad()
		}
		pi.op, pi.name = OpCall, callee
		if inner != "" {
			for _, a := range strings.Split(inner, ", ") {
				if !operand(a) {
					return bad()
				}
				pi.args = append(pi.args, a)
			}
		}
	case "goto":
		if !operand(rest) {
			return bad()
		}
		pi.op, pi.succs = OpJump, []string{rest}
	case "if":
		cond, rest, ok := strings.Cut(rest, " goto ")
		thenB, elseB, ok2 := strings.Cut(rest, " else ")
		if !ok || !ok2 || !operand(cond) || !operand(thenB) || !operand(elseB) {
			return bad()
		}
		pi.op, pi.args, pi.succs = OpBranch, []string{cond}, []string{thenB, elseB}
	case "switch":
		v, listPart, ok := strings.Cut(rest, " ")
		inner, ok2 := cutBrackets(listPart)
		if !ok || !ok2 || !operand(v) {
			return bad()
		}
		pi.op, pi.args = OpSwitch, []string{v}
		pi.cases = []int64{} // printed switches always carry a case list
		ents := strings.Split(inner, ", ")
		for k, ent := range ents {
			val, target, ok := strings.Cut(ent, ": ")
			if !ok || !operand(target) {
				return bad()
			}
			if k == len(ents)-1 {
				if val != "default" {
					return bad()
				}
			} else {
				c, err := strconv.ParseInt(val, 10, 64)
				if err != nil || strconv.FormatInt(c, 10) != val {
					return bad()
				}
				pi.cases = append(pi.cases, c)
			}
			pi.succs = append(pi.succs, target)
		}
		if len(pi.cases) == 0 {
			pi.cases = nil
		}
	case "return":
		if !operand(rest) {
			return bad()
		}
		pi.op, pi.args = OpReturn, []string{rest}
	}
	if bop, ok := printedBinOps[op]; ok {
		a, b, ok := strings.Cut(rest, ", ")
		if !ok || !operand(a) || !operand(b) {
			return bad()
		}
		pi.op, pi.args = bop, []string{a, b}
	} else if pi.op == OpInvalid {
		return pi, fmt.Errorf("unknown op in %q", body)
	}
	hasDef := pi.def != ""
	if hasDef != pi.op.HasValue() {
		return pi, fmt.Errorf("definition mismatch in %q", body)
	}
	return pi, nil
}

// cutBrackets strips one enclosing "[...]" pair.
func cutBrackets(s string) (string, bool) {
	inner, ok := strings.CutPrefix(s, "[")
	if !ok {
		return "", false
	}
	return strings.CutSuffix(inner, "]")
}
