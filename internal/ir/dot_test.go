package ir

import (
	"strings"
	"testing"
)

func TestDOTBasicShape(t *testing.T) {
	r, entry, thenB, _, join := buildDiamond(t)
	out := r.DOT(nil)
	for _, want := range []string{
		`digraph "diamond"`,
		`"entry" ->`,
		`[label="T"]`,
		`[label="F"]`,
		"phi [",
		"return",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT missing %q:\n%s", want, out)
		}
	}
	_ = entry
	_ = thenB
	_ = join
}

func TestDOTDecorate(t *testing.T) {
	r, _, thenB, _, _ := buildDiamond(t)
	out := r.DOT(func(b *Block) string {
		if b == thenB {
			return ",color=red"
		}
		return ""
	})
	if !strings.Contains(out, `"then" [label="then:`) || !strings.Contains(out, ",color=red]") {
		t.Errorf("decoration missing:\n%s", out)
	}
}

func TestDOTSwitchLabels(t *testing.T) {
	r := NewRoutine("sw")
	entry := r.Entry()
	a := r.NewBlock("a")
	b := r.NewBlock("b")
	d := r.NewBlock("d")
	x := r.AddParam("x")
	sw := r.Append(entry, OpSwitch, x)
	sw.Block.Cases = []int64{3, 9}
	r.AddEdge(entry, a)
	r.AddEdge(entry, b)
	r.AddEdge(entry, d)
	r.Append(a, OpReturn, x)
	r.Append(b, OpReturn, x)
	r.Append(d, OpReturn, x)
	out := r.DOT(nil)
	for _, want := range []string{`[label="3"]`, `[label="9"]`, `[label="default"]`} {
		if !strings.Contains(out, want) {
			t.Errorf("switch DOT missing %q:\n%s", want, out)
		}
	}
}

func TestEscapeDOT(t *testing.T) {
	if got := escapeDOT(`a"b\c`); got != `a\"b\\c` {
		t.Errorf("escapeDOT = %q", got)
	}
}
