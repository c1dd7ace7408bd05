// Package parser parses the textual IR language used throughout the
// library. The language is a small unstructured imperative form in which
// the paper's example routines can be written verbatim:
//
//	func R(X, Y, Z) {
//	entry:
//	  I = 1
//	  goto loop
//	loop:
//	  if J > 9 goto exit else body
//	...
//	exit:
//	  return I
//	}
//
// Statements are assignments (x = expr), goto, two-way if/goto/else,
// switch (switch expr [1: L1, 2: L2, default: L3]) and return. Expressions
// support integer literals, variables, unary minus, + - * / %, the six
// comparisons and calls of opaque pure functions. Comments run from // to
// end of line. Parsed routines are in non-SSA form; run ssa.Build next.
package parser

import (
	"fmt"
	"strconv"
)

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokInt
	tokPunct // single/double character punctuation, in token.text
)

type token struct {
	kind tokenKind
	text string
	val  int64
	line int
}

func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "end of input"
	case tokInt:
		return strconv.FormatInt(t.val, 10)
	default:
		return t.text
	}
}

type lexer struct {
	src  string
	pos  int
	line int
}

func newLexer(src string) *lexer { return &lexer{src: src, line: 1} }

func isIdentStart(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

func isIdentCont(c byte) bool { return isIdentStart(c) || c >= '0' && c <= '9' }

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// next returns the next token, or an error for malformed input.
func (lx *lexer) next() (token, error) {
	for lx.pos < len(lx.src) {
		c := lx.src[lx.pos]
		switch {
		case c == '\n':
			lx.line++
			lx.pos++
		case c == ' ' || c == '\t' || c == '\r':
			lx.pos++
		case c == '/' && lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '/':
			for lx.pos < len(lx.src) && lx.src[lx.pos] != '\n' {
				lx.pos++
			}
		default:
			goto scan
		}
	}
	return token{kind: tokEOF, line: lx.line}, nil

scan:
	c := lx.src[lx.pos]
	start := lx.pos
	switch {
	case isIdentStart(c):
		for lx.pos < len(lx.src) && isIdentCont(lx.src[lx.pos]) {
			lx.pos++
		}
		return token{kind: tokIdent, text: lx.src[start:lx.pos], line: lx.line}, nil
	case isDigit(c):
		for lx.pos < len(lx.src) && isDigit(lx.src[lx.pos]) {
			lx.pos++
		}
		v, err := strconv.ParseInt(lx.src[start:lx.pos], 10, 64)
		if err != nil {
			return token{}, fmt.Errorf("line %d: bad integer %q", lx.line, lx.src[start:lx.pos])
		}
		return token{kind: tokInt, val: v, line: lx.line}, nil
	}
	// Punctuation, longest match first.
	two := ""
	if lx.pos+1 < len(lx.src) {
		two = lx.src[lx.pos : lx.pos+2]
	}
	switch two {
	case "==", "!=", "<=", ">=":
		lx.pos += 2
		return token{kind: tokPunct, text: two, line: lx.line}, nil
	}
	switch c {
	case '(', ')', '{', '}', '[', ']', ',', ':', '=', '<', '>', '+', '-', '*', '/', '%':
		lx.pos++
		return token{kind: tokPunct, text: lx.src[start:lx.pos], line: lx.line}, nil
	}
	return token{}, fmt.Errorf("line %d: unexpected character %q", lx.line, string(c))
}
