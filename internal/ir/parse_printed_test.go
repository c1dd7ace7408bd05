package ir_test

// The printed-form tests live in the external test package so they
// can parse real corpus sources through package parser and build SSA
// with package ssa.

import (
	"errors"
	"os"
	"strings"
	"testing"

	"pgvn/internal/ir"
	"pgvn/internal/parser"
	"pgvn/internal/ssa"
	"pgvn/internal/workload"
)

// printCorpus gathers routines spanning the printed form's feature
// space: hand-written testdata (φs after SSA, switches, calls),
// generated workload routines (pre-SSA VarRead/VarWrite forms) and
// their SSA conversions.
func printCorpus(t testing.TB) []*ir.Routine {
	var routines []*ir.Routine
	for _, file := range []string{"../../testdata/figure1.ir", "../../testdata/realistic.ir"} {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := parser.Parse(string(data))
		if err != nil {
			t.Fatal(err)
		}
		routines = append(routines, rs...)
	}
	for _, bm := range workload.Corpus(0.02) {
		for _, r := range bm.Routines {
			routines = append(routines, r)
			clone := r.Clone()
			ssa.Build(clone, ssa.SemiPruned)
			routines = append(routines, clone)
		}
	}
	if len(routines) < 10 {
		t.Fatalf("corpus too small: %d routines", len(routines))
	}
	return routines
}

// printedNamesUnique reports whether every printed value name in r is
// defined once — the precondition for the printed form to be
// unambiguous. Pre-SSA routines fail it (every varread of x prints as
// x = varread x).
func printedNamesUnique(r *ir.Routine) bool {
	seen := map[string]bool{}
	ok := true
	r.Instrs(func(i *ir.Instr) {
		if !i.HasValue() {
			return
		}
		if seen[i.ValueName()] {
			ok = false
		}
		seen[i.ValueName()] = true
	})
	return ok
}

func TestParsePrintedRoundTrip(t *testing.T) {
	for _, r := range printCorpus(t) {
		text := r.String()
		got, err := ir.ParsePrinted(text)
		if !printedNamesUnique(r) {
			if err == nil {
				t.Errorf("%s: ambiguous printed names parsed without error", r.Name)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: ParsePrinted: %v", r.Name, err)
		}
		if len(got) != 1 {
			t.Fatalf("%s: got %d routines", r.Name, len(got))
		}
		if got[0].String() != text {
			t.Fatalf("%s: reprint differs:\n--- want\n%s\n--- got\n%s", r.Name, text, got[0].String())
		}
		if r.Verify() == nil {
			if err := got[0].Verify(); err != nil {
				t.Fatalf("%s: reconstructed routine fails Verify: %v", r.Name, err)
			}
		}
	}
}

func TestParsePrintedMultipleRoutines(t *testing.T) {
	var sb strings.Builder
	var want []string
	n := 0
	for _, r := range printCorpus(t) {
		if !printedNamesUnique(r) {
			continue
		}
		sb.WriteString(r.String())
		want = append(want, r.String())
		if n++; n == 5 {
			break
		}
	}
	got, err := ir.ParsePrinted(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d routines, want %d", len(got), len(want))
	}
	for k, r := range got {
		if r.String() != want[k] {
			t.Fatalf("routine %d reprints differently", k)
		}
	}
}

// FuzzParsePrinted holds the printed-form parser to its contract:
// arbitrary text either fails with ErrPrinted or parses to routines
// whose reprint parses again to the same text — never a panic.
func FuzzParsePrinted(f *testing.F) {
	for _, r := range printCorpus(f) {
		f.Add(r.String())
	}
	f.Fuzz(func(t *testing.T, text string) {
		rs, err := ir.ParsePrinted(text)
		if err != nil {
			if !errors.Is(err, ir.ErrPrinted) {
				t.Fatalf("error does not wrap ErrPrinted: %v", err)
			}
			return
		}
		var sb strings.Builder
		for _, r := range rs {
			sb.WriteString(r.String())
		}
		again, err := ir.ParsePrinted(sb.String())
		if err != nil {
			t.Fatalf("reprint of parsed text failed to parse: %v", err)
		}
		var sb2 strings.Builder
		for _, r := range again {
			sb2.WriteString(r.String())
		}
		if sb2.String() != sb.String() {
			t.Fatal("reprint is not a fixed point")
		}
	})
}

func TestParsePrintedRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"empty":            "",
		"no header":        "entry:\n  return v1\n}\n",
		"unterminated":     "func f(a) {\nentry:\n  goto entry\n",
		"unknown op":       "func f(a) {\nentry:\n  v1 = frob a\n  return v1\n}\n",
		"surface syntax":   "func f(a) {\nentry:\n  v = a + a\n  return v\n}\n",
		"duplicate def":    "func f() {\nentry:\n  x = const 1\n  x = const 2\n  return x\n}\n",
		"undefined value":  "func f() {\nentry:\n  return ghost\n}\n",
		"named call value": "func f(a) {\nentry:\n  x = call g(a)\n  return x\n}\n",
		"phi label":        "func f(a) {\nentry:\n  goto b1\nb1:\n  p = phi [nosuch: a]\n  return p\n}\n",
		"bad id name":      "func f() {\nentry:\n  v07 = frob\n  return v07\n}\n",
		"unknown target":   "func f() {\nentry:\n  goto nowhere\n}\n",
		"void with def":    "func f(a) {\nentry:\n  x = return a\n}\n",
		"value sans def":   "func f(a) {\nentry:\n  add a, a\n  return a\n}\n",
	}
	for name, src := range cases {
		if _, err := ir.ParsePrinted(src); !errors.Is(err, ir.ErrPrinted) {
			t.Errorf("%s: ParsePrinted = %v, want ErrPrinted", name, err)
		}
	}
}
