package core

import (
	"testing"

	"pgvn/internal/ir"
)

const partitionSrc = `
func f(a, b) {
e:
  if a < b goto t else u
t:
  x = a + b
  goto j
u:
  y = a * 2
  goto j
j:
  z = a + b
  w = a + b
  return z
}
`

func TestPartitionDenseIDs(t *testing.T) {
	res := analyze(t, partitionSrc, DefaultConfig())
	p := res.Partition()

	if p.NumClasses() == 0 {
		t.Fatalf("no classes")
	}
	// Every determined value maps into range; ids are dense.
	seen := make([]bool, p.NumClasses())
	res.Routine.Instrs(func(i *ir.Instr) {
		if !i.HasValue() {
			return
		}
		id := p.ClassOf(i)
		if !res.ValueReachable(i) {
			if id != NoClass {
				t.Errorf("undetermined %s has class %d", i.ValueName(), id)
			}
			return
		}
		if id < 0 || int(id) >= p.NumClasses() {
			t.Fatalf("%s: class id %d out of range", i.ValueName(), id)
		}
		seen[id] = true
	})
	for id, ok := range seen {
		if !ok {
			t.Errorf("class %d has no member mapping to it", id)
		}
	}

	x := valueByName(t, res.Routine, "x")
	z := valueByName(t, res.Routine, "z")
	w := valueByName(t, res.Routine, "w")
	if p.ClassOf(x) != p.ClassOf(z) || p.ClassOf(z) != p.ClassOf(w) {
		t.Errorf("congruent a+b copies got distinct ids: %d %d %d",
			p.ClassOf(x), p.ClassOf(z), p.ClassOf(w))
	}
	id := p.ClassOf(z)
	ms := p.Members(id)
	if len(ms) < 3 {
		t.Fatalf("a+b class has %d members, want >= 3", len(ms))
	}
	for k := 1; k < len(ms); k++ {
		if ms[k-1].ID >= ms[k].ID {
			t.Fatalf("members not sorted by ID: %v", ms)
		}
	}
	if e := p.LeaderExpr(id); e == nil {
		t.Errorf("a+b class has no leader expression")
	}
	if _, ok := p.ConstValue(id); ok {
		t.Errorf("a+b class claims to be constant")
	}
}

func TestPartitionDeterministic(t *testing.T) {
	res := analyze(t, partitionSrc, DefaultConfig())
	p1, p2 := res.Partition(), res.Partition()
	if p1.NumClasses() != p2.NumClasses() {
		t.Fatalf("class counts differ: %d vs %d", p1.NumClasses(), p2.NumClasses())
	}
	res.Routine.Instrs(func(i *ir.Instr) {
		if i.HasValue() && p1.ClassOf(i) != p2.ClassOf(i) {
			t.Errorf("%s: id differs across builds: %d vs %d",
				i.ValueName(), p1.ClassOf(i), p2.ClassOf(i))
		}
	})
}

func TestPartitionConstClass(t *testing.T) {
	res := analyze(t, `
func g(a) {
e:
  c = 2 + 3
  d = 5
  return c + d
}
`, DefaultConfig())
	p := res.Partition()
	c := valueByName(t, res.Routine, "c")
	d := valueByName(t, res.Routine, "d")
	if p.ClassOf(c) == NoClass {
		t.Fatalf("c undetermined")
	}
	if v, ok := p.ConstValue(p.ClassOf(c)); !ok || v != 5 {
		t.Errorf("ConstValue(c) = %d,%v, want 5,true", v, ok)
	}
	if p.ClassOf(c) != p.ClassOf(d) {
		t.Errorf("2+3 and 5 in different classes")
	}
	if p.ClassOf(&irInstrOutOfRange) != NoClass {
		t.Errorf("out-of-range instruction got a class")
	}
}
