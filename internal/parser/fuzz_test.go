package parser

import (
	"strings"
	"testing"

	"pgvn/internal/check"
	"pgvn/internal/core"
	"pgvn/internal/ssa"
)

// FuzzParse feeds arbitrary input to the parser: it must either return an
// error or a routine that verifies and survives the whole self-checked
// pipeline — never panic.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"func f(x) {\nentry:\n  return x\n}",
		"func f(a, b) {\ne:\n  x = a + b * 2\n  if x > 0 goto t else u\nt:\n  return x\nu:\n  return 0\n}",
		"func f(s) {\ne:\n  switch s [1: a, default: b]\na:\n  return 1\nb:\n  return 2\n}",
		"func f() {\ne:\n  x = g(1, 2) - -3\n  return x\n}",
		"func f(x) {\na:\n  goto b\nb:\n  goto a\n}",
		"func  (x) {", "func f(x{", "", "// comment only",
		"func f(x) {\nentry:\n  y = x %% 3\n  return y\n}",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		routines, err := Parse(src)
		if err != nil {
			return
		}
		for _, r := range routines {
			if vErr := r.Verify(); vErr != nil {
				t.Fatalf("parsed routine does not verify: %v\ninput: %q", vErr, src)
			}
			// The full verification tier is the oracle: SSA construction,
			// analysis, transformation and every check between them must
			// succeed on anything the parser accepts.
			if pErr := check.Pipeline(r, core.DefaultConfig(), ssa.SemiPruned, check.Full); pErr != nil {
				t.Fatalf("self-checked pipeline rejected parsed routine: %v\ninput: %q", pErr, src)
			}
		}
	})
}

// TestParserErrorPathsExtra exercises remaining diagnostics.
func TestParserErrorPathsExtra(t *testing.T) {
	cases := []string{
		"func f(x) {\nentry:\n  x = \n  return x\n}",         // missing expr
		"func f(x) {\nentry:\n  if x goto a b\n}",            // missing else kw
		"func f(x) {\nentry:\n  switch x [a: b]\nb:\n}",      // bad case const
		"func f(x) {\nentry:\n  y = (x\n  return y\n}",       // unclosed paren
		"func f(x) {\nentry:\n  y = g(x\n  return y\n}",      // unclosed call
		"func f(x x) {\nentry:\n  return x\n}",               // bad param list
		"func f(x) \nentry:\n  return x\n}",                  // missing {
		"notfunc f(x) {\nentry:\n  return x\n}",              // missing func
		"func f(x) {\nentry\n  return x\n}",                  // missing colon
		"func f(x) {\nentry:\n  return x\n} trailing",        // trailing junk
		"func f(x) {\nentry:\n  y = 99999999999999999999\n}", // overflow int
		"func f(x) {\nentry:\n  switch x [1: a, 2]\na:\n}",   // malformed case
		"func f(x) {\nentry:\n  if x goto a else\n}",         // missing label
		"func f(x) {\nentry:\n  goto\n}",                     // goto w/o label
		"func f(x) {\nentry:\n  return\n}",                   // return w/o expr
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("no error for %q", src)
		}
	}
}

func TestParseRoutineRejectsMultiple(t *testing.T) {
	_, err := ParseRoutine(`
func a(x) {
e:
  return x
}
func b(x) {
e:
  return x
}
`)
	if err == nil || !strings.Contains(err.Error(), "one function") {
		t.Errorf("multiple functions accepted by ParseRoutine: %v", err)
	}
}

func TestLexerNegativeNumbersAndOps(t *testing.T) {
	r := mustParse(t, `
func f(a) {
entry:
  x = a * -3 / (0 - -2)
  y = x % 5
  return y
}
`)
	if err := r.Verify(); err != nil {
		t.Fatal(err)
	}
}
