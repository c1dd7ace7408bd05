package parser

import (
	"fmt"

	"pgvn/internal/ir"
)

// Parse parses a program containing one or more functions and returns the
// routines in source order, in non-SSA form.
func Parse(src string) ([]*ir.Routine, error) {
	p := &parser{lx: newLexer(src)}
	if err := p.advance(); err != nil {
		return nil, err
	}
	var routines []*ir.Routine
	for p.tok.kind != tokEOF {
		r, err := p.parseFunc()
		if err != nil {
			return nil, err
		}
		routines = append(routines, r)
	}
	if len(routines) == 0 {
		return nil, fmt.Errorf("parser: no functions in input")
	}
	return routines, nil
}

// ParseRoutine parses a program that must contain exactly one function.
func ParseRoutine(src string) (*ir.Routine, error) {
	rs, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if len(rs) != 1 {
		return nil, fmt.Errorf("parser: expected one function, found %d", len(rs))
	}
	return rs[0], nil
}

type parser struct {
	lx  *lexer
	tok token

	r     *ir.Routine
	cur   *ir.Block
	edges []pendingEdge // terminator targets, resolved after all blocks
}

type pendingEdge struct {
	from  *ir.Block
	label string
	line  int
}

func (p *parser) advance() error {
	t, err := p.lx.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("line %d: %s", p.tok.line, fmt.Sprintf(format, args...))
}

func (p *parser) expectPunct(s string) error {
	if p.tok.kind != tokPunct || p.tok.text != s {
		return p.errf("expected %q, found %s", s, p.tok)
	}
	return p.advance()
}

func (p *parser) expectIdent() (string, error) {
	if p.tok.kind != tokIdent {
		return "", p.errf("expected identifier, found %s", p.tok)
	}
	name := p.tok.text
	return name, p.advance()
}

func (p *parser) isPunct(s string) bool {
	return p.tok.kind == tokPunct && p.tok.text == s
}

func (p *parser) isKeyword(s string) bool {
	return p.tok.kind == tokIdent && p.tok.text == s
}

func (p *parser) parseFunc() (*ir.Routine, error) {
	if !p.isKeyword("func") {
		return nil, p.errf("expected 'func', found %s", p.tok)
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	p.r = ir.NewRoutine(name)
	p.cur = nil
	p.edges = nil
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	seenParams := map[string]bool{}
	for !p.isPunct(")") {
		pname, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if seenParams[pname] {
			return nil, p.errf("duplicate parameter %q", pname)
		}
		seenParams[pname] = true
		p.r.AddParam(pname)
		if p.isPunct(",") {
			if err := p.advance(); err != nil {
				return nil, err
			}
		} else if !p.isPunct(")") {
			return nil, p.errf("expected ',' or ')' in parameter list, found %s", p.tok)
		}
	}
	if err := p.advance(); err != nil { // ')'
		return nil, err
	}
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	labels := map[string]*ir.Block{}
	first := true
	for !p.isPunct("}") {
		// A block starts with "label:".
		label, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(":"); err != nil {
			return nil, err
		}
		if _, dup := labels[label]; dup {
			return nil, p.errf("duplicate label %q", label)
		}
		if first {
			p.cur = p.r.Entry()
			p.cur.Name = label
			first = false
		} else {
			p.cur = p.r.NewBlock(label)
		}
		labels[label] = p.cur
		if err := p.parseStmts(); err != nil {
			return nil, err
		}
		if p.cur.Terminator() == nil {
			return nil, p.errf("block %q does not end in goto/if/switch/return", label)
		}
	}
	if err := p.advance(); err != nil { // '}'
		return nil, err
	}
	if first {
		return nil, fmt.Errorf("parser: function %s has no blocks", name)
	}
	// Resolve edges in terminator order so that branch successor 0 is the
	// true target, successor 1 the false target, and switch successors
	// follow case order with default last.
	for _, pe := range p.edges {
		to, ok := labels[pe.label]
		if !ok {
			return nil, fmt.Errorf("line %d: undefined label %q", pe.line, pe.label)
		}
		p.r.AddEdge(pe.from, to)
	}
	if err := p.r.Verify(); err != nil {
		return nil, fmt.Errorf("parser: %w", err)
	}
	return p.r, nil
}

// parseStmts parses statements until the next label or '}'. It stops after
// the block's terminator.
func (p *parser) parseStmts() error {
	for {
		if p.isPunct("}") {
			return nil
		}
		if p.tok.kind != tokIdent {
			return p.errf("expected statement, found %s", p.tok)
		}
		switch p.tok.text {
		case "goto":
			if err := p.advance(); err != nil {
				return err
			}
			line := p.tok.line
			label, err := p.expectIdent()
			if err != nil {
				return err
			}
			p.r.Append(p.cur, ir.OpJump)
			p.edges = append(p.edges, pendingEdge{p.cur, label, line})
			return nil
		case "if":
			if err := p.advance(); err != nil {
				return err
			}
			cond, err := p.parseExpr()
			if err != nil {
				return err
			}
			if !p.isKeyword("goto") {
				return p.errf("expected 'goto' after if condition, found %s", p.tok)
			}
			if err := p.advance(); err != nil {
				return err
			}
			line := p.tok.line
			tlabel, err := p.expectIdent()
			if err != nil {
				return err
			}
			if !p.isKeyword("else") {
				return p.errf("expected 'else', found %s", p.tok)
			}
			if err := p.advance(); err != nil {
				return err
			}
			flabel, err := p.expectIdent()
			if err != nil {
				return err
			}
			p.r.Append(p.cur, ir.OpBranch, cond)
			p.edges = append(p.edges,
				pendingEdge{p.cur, tlabel, line},
				pendingEdge{p.cur, flabel, line})
			return nil
		case "switch":
			return p.parseSwitch()
		case "return":
			if err := p.advance(); err != nil {
				return err
			}
			v, err := p.parseExpr()
			if err != nil {
				return err
			}
			p.r.Append(p.cur, ir.OpReturn, v)
			return nil
		default:
			// Assignment: ident = expr.
			name := p.tok.text
			if err := p.advance(); err != nil {
				return err
			}
			if err := p.expectPunct("="); err != nil {
				return err
			}
			v, err := p.parseExpr()
			if err != nil {
				return err
			}
			w := p.r.Append(p.cur, ir.OpVarWrite, v)
			w.Name = name
		}
	}
}

func (p *parser) parseSwitch() error {
	if err := p.advance(); err != nil { // 'switch'
		return err
	}
	sel, err := p.parseExpr()
	if err != nil {
		return err
	}
	if err := p.expectPunct("["); err != nil {
		return err
	}
	sw := p.r.Append(p.cur, ir.OpSwitch, sel)
	var caseEdges []pendingEdge
	defaultSeen := false
	var defaultEdge pendingEdge
	seenCase := make(map[int64]bool)
	for !p.isPunct("]") {
		if p.isKeyword("default") {
			if err := p.advance(); err != nil {
				return err
			}
			if err := p.expectPunct(":"); err != nil {
				return err
			}
			line := p.tok.line
			label, err := p.expectIdent()
			if err != nil {
				return err
			}
			defaultSeen = true
			defaultEdge = pendingEdge{p.cur, label, line}
		} else {
			if p.tok.kind != tokInt {
				return p.errf("expected case constant, found %s", p.tok)
			}
			c := p.tok.val
			if seenCase[c] {
				// ir.Verify rejects duplicate case values; the parser
				// must reject them too so everything it accepts
				// verifies.
				return p.errf("duplicate switch case %d", c)
			}
			seenCase[c] = true
			if err := p.advance(); err != nil {
				return err
			}
			if err := p.expectPunct(":"); err != nil {
				return err
			}
			line := p.tok.line
			label, err := p.expectIdent()
			if err != nil {
				return err
			}
			sw.Block.Cases = append(sw.Block.Cases, c)
			caseEdges = append(caseEdges, pendingEdge{p.cur, label, line})
		}
		if p.isPunct(",") {
			if err := p.advance(); err != nil {
				return err
			}
		} else if !p.isPunct("]") {
			return p.errf("expected ',' or ']' in switch cases, found %s", p.tok)
		}
	}
	if err := p.advance(); err != nil { // ']'
		return err
	}
	if !defaultSeen {
		return p.errf("switch without default case")
	}
	p.edges = append(p.edges, caseEdges...)
	p.edges = append(p.edges, defaultEdge)
	return nil
}

// Expression parsing: comparison < additive < multiplicative < unary.

func (p *parser) parseExpr() (*ir.Instr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	var op ir.Op
	switch {
	case p.isPunct("=="):
		op = ir.OpEq
	case p.isPunct("!="):
		op = ir.OpNe
	case p.isPunct("<"):
		op = ir.OpLt
	case p.isPunct("<="):
		op = ir.OpLe
	case p.isPunct(">"):
		op = ir.OpGt
	case p.isPunct(">="):
		op = ir.OpGe
	default:
		return left, nil
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	right, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	return p.r.Append(p.cur, op, left, right), nil
}

func (p *parser) parseAdditive() (*ir.Instr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		var op ir.Op
		switch {
		case p.isPunct("+"):
			op = ir.OpAdd
		case p.isPunct("-"):
			op = ir.OpSub
		default:
			return left, nil
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		left = p.r.Append(p.cur, op, left, right)
	}
}

func (p *parser) parseMultiplicative() (*ir.Instr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		var op ir.Op
		switch {
		case p.isPunct("*"):
			op = ir.OpMul
		case p.isPunct("/"):
			op = ir.OpDiv
		case p.isPunct("%"):
			op = ir.OpMod
		default:
			return left, nil
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = p.r.Append(p.cur, op, left, right)
	}
}

func (p *parser) parseUnary() (*ir.Instr, error) {
	if p.isPunct("-") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		v, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return p.r.Append(p.cur, ir.OpNeg, v), nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (*ir.Instr, error) {
	switch {
	case p.tok.kind == tokInt:
		c := p.r.ConstInt(p.cur, p.tok.val)
		return c, p.advance()
	case p.isPunct("("):
		if err := p.advance(); err != nil {
			return nil, err
		}
		v, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return v, p.expectPunct(")")
	case p.tok.kind == tokIdent:
		name := p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.isPunct("(") {
			// Opaque pure call.
			if err := p.advance(); err != nil {
				return nil, err
			}
			var args []*ir.Instr
			for !p.isPunct(")") {
				a, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				args = append(args, a)
				if p.isPunct(",") {
					if err := p.advance(); err != nil {
						return nil, err
					}
				} else if !p.isPunct(")") {
					return nil, p.errf("expected ',' or ')' in call arguments, found %s", p.tok)
				}
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
			call := p.r.Append(p.cur, ir.OpCall, args...)
			call.Name = name
			return call, nil
		}
		read := p.r.Append(p.cur, ir.OpVarRead)
		read.Name = name
		return read, nil
	}
	return nil, p.errf("expected expression, found %s", p.tok)
}
