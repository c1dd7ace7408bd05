package core

import (
	"strings"

	"pgvn/internal/expr"
	"pgvn/internal/ir"
)

// This file holds the rendered views of analysis state that only tests
// read: the non-test build renders expressions for Explain alone.

// RenderExpr pretty-prints a symbolic expression with source-level value
// names instead of internal IDs.
func (r *Result) RenderExpr(e *expr.Expr) string {
	var sb strings.Builder
	r.renderExpr(&sb, e)
	return sb.String()
}

// BlockPredicate returns the φ-predication predicate of block b rendered
// over value names ("" when none was computed), plus the CANONICAL
// incoming-edge order it corresponds to (§2.8).
func (r *Result) BlockPredicate(b *ir.Block) (string, []*ir.Edge) {
	p, canonical := r.PredicateInfo(b)
	if p == nil {
		return "", nil
	}
	return r.RenderExpr(p), canonical
}

// classExpr exposes a class's defining expression.
func (r *Result) classExpr(v *ir.Instr) *expr.Expr {
	if c := r.class(v); c != nil {
		return c.expr
	}
	return nil
}
