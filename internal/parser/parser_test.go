package parser

import (
	"strings"
	"testing"

	"pgvn/internal/ir"
)

// mustParse parses a known-good single-routine source.
func mustParse(t *testing.T, src string) *ir.Routine {
	t.Helper()
	r, err := ParseRoutine(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return r
}

func TestParseSimple(t *testing.T) {
	r, err := ParseRoutine(`
func add1(x) {
entry:
  y = x + 1
  return y
}
`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if r.Name != "add1" || len(r.Params) != 1 || r.Params[0].Name != "x" {
		t.Fatalf("signature wrong: %s", r)
	}
	if err := r.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}
	if r.IsSSA() {
		t.Fatalf("freshly parsed routine should contain var pseudo-instructions")
	}
}

func TestParseBranchEdgeOrder(t *testing.T) {
	r := mustParse(t, `
func f(x) {
entry:
  if x < 3 goto yes else no
yes:
  return 1
no:
  return 0
}
`)
	entry := r.Entry()
	if entry.Succs[0].To.Name != "yes" || entry.Succs[1].To.Name != "no" {
		t.Fatalf("branch successors out of order: %v, %v",
			entry.Succs[0].To, entry.Succs[1].To)
	}
	term := entry.Terminator()
	if term.Op != ir.OpBranch {
		t.Fatalf("terminator is %v", term.Op)
	}
	if term.Args[0].Op != ir.OpLt {
		t.Fatalf("branch condition op = %v, want lt", term.Args[0].Op)
	}
}

func TestParseSwitch(t *testing.T) {
	r := mustParse(t, `
func f(x) {
entry:
  switch x [1: one, 5: five, default: other]
one:
  return 1
five:
  return 5
other:
  return 0
}
`)
	entry := r.Entry()
	term := entry.Terminator()
	if term.Op != ir.OpSwitch {
		t.Fatalf("terminator = %v", term.Op)
	}
	if len(term.Block.Cases) != 2 || term.Block.Cases[0] != 1 || term.Block.Cases[1] != 5 {
		t.Fatalf("cases = %v", term.Block.Cases)
	}
	if len(entry.Succs) != 3 || entry.Succs[2].To.Name != "other" {
		t.Fatalf("switch successors wrong")
	}
}

func TestParsePrecedence(t *testing.T) {
	r := mustParse(t, `
func f(a, b, c) {
entry:
  x = a + b * c
  y = (a + b) * c
  z = a - b - c
  w = -a + b
  p = a + b < c * 2
  return p
}
`)
	// Find the writes and inspect the expression tree shapes.
	find := func(name string) *ir.Instr {
		for _, i := range r.Entry().Instrs {
			if i.Op == ir.OpVarWrite && i.Name == name {
				return i.Args[0]
			}
		}
		t.Fatalf("no write of %s", name)
		return nil
	}
	if x := find("x"); x.Op != ir.OpAdd || x.Args[1].Op != ir.OpMul {
		t.Errorf("a+b*c parsed wrong: %v", x)
	}
	if y := find("y"); y.Op != ir.OpMul || y.Args[0].Op != ir.OpAdd {
		t.Errorf("(a+b)*c parsed wrong: %v", y)
	}
	if z := find("z"); z.Op != ir.OpSub || z.Args[0].Op != ir.OpSub {
		t.Errorf("a-b-c not left-associative: %v", z)
	}
	if w := find("w"); w.Op != ir.OpAdd || w.Args[0].Op != ir.OpNeg {
		t.Errorf("-a+b parsed wrong: %v", w)
	}
	if p := find("p"); p.Op != ir.OpLt || p.Args[0].Op != ir.OpAdd || p.Args[1].Op != ir.OpMul {
		t.Errorf("comparison precedence wrong: %v", p)
	}
}

func TestParseCall(t *testing.T) {
	r := mustParse(t, `
func f(a) {
entry:
  x = g(a, 2) + h()
  return x
}
`)
	var calls []*ir.Instr
	r.Instrs(func(i *ir.Instr) {
		if i.Op == ir.OpCall {
			calls = append(calls, i)
		}
	})
	if len(calls) != 2 {
		t.Fatalf("found %d calls, want 2", len(calls))
	}
	if calls[0].Name != "g" || len(calls[0].Args) != 2 {
		t.Errorf("first call wrong: %v", calls[0])
	}
	if calls[1].Name != "h" || len(calls[1].Args) != 0 {
		t.Errorf("second call wrong: %v", calls[1])
	}
}

func TestParseComments(t *testing.T) {
	_, err := ParseRoutine(`
// leading comment
func f(x) { // trailing
entry: // another
  // a full-line comment
  return x
}
`)
	if err != nil {
		t.Fatalf("comments broke parsing: %v", err)
	}
}

func TestParseMultipleFunctions(t *testing.T) {
	rs, err := Parse(`
func a(x) {
entry:
  return x
}
func b(y) {
start:
  return y
}
`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(rs) != 2 || rs[0].Name != "a" || rs[1].Name != "b" {
		t.Fatalf("got %d functions", len(rs))
	}
	if rs[1].Entry().Name != "start" {
		t.Fatalf("second function entry label = %q", rs[1].Entry().Name)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{"undefined label", "func f(x) {\nentry:\n goto nowhere\n}", "undefined label"},
		{"duplicate label", "func f(x) {\na:\n goto a\na:\n return x\n}", "duplicate label"},
		{"missing terminator", "func f(x) {\nentry:\n y = x\n}", "does not end"},
		{"bad token", "func f(x) {\nentry:\n y = x ^ 2\n return y\n}", "unexpected character"},
		{"missing else", "func f(x) {\nentry:\n if x goto a\na:\n return x\n}", "expected 'else'"},
		{"no default", "func f(x) {\nentry:\n switch x [1: a]\na:\n return x\n}", "without default"},
		{"duplicate case", "func f(x) {\nentry:\n switch x [1: a, 1: a, default: a]\na:\n return x\n}", "duplicate switch case 1"},
		{"empty input", "   ", "no functions"},
		{"garbage after expr", "func f(x) {\nentry:\n return x x\n}", "expected"},
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		if err == nil {
			t.Errorf("%s: no error", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not contain %q", c.name, err, c.want)
		}
	}
}

func TestParseLineNumbersInErrors(t *testing.T) {
	_, err := Parse("func f(x) {\nentry:\n  y = x\n  goto missing\n}")
	if err == nil || !strings.Contains(err.Error(), "line 4") {
		t.Errorf("error should cite line 4: %v", err)
	}
}

func TestPrintedFormStable(t *testing.T) {
	src := `
func rt(a, b) {
entry:
  x = a * b + 2
  if x > 10 goto big else small
big:
  y = x - 1
  goto done
small:
  y = x + 1
  goto done
done:
  return y
}
`
	r := mustParse(t, src)
	p1, p2 := r.String(), r.String()
	if p1 != p2 {
		t.Fatalf("printing is not deterministic:\n%s\nvs\n%s", p1, p2)
	}
	for _, want := range []string{"func rt(a, b)", "goto done", "if v", "return"} {
		if !strings.Contains(p1, want) {
			t.Errorf("printout missing %q:\n%s", want, p1)
		}
	}
}
