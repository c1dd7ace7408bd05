package core

import (
	"reflect"
	"testing"

	"pgvn/internal/expr"
	"pgvn/internal/ir"
)

// releasedRun analyzes Figure 1 until a run carves through a chunk set
// from slabPool. The pool starts empty and the first Release leaves a set
// in it, so this takes two runs, a few more under the race detector,
// where sync.Pool drops a quarter of its Puts.
func releasedRun(t *testing.T) *Result {
	t.Helper()
	for range 20 {
		res := analyze(t, figure1Source, DefaultConfig())
		if res.slabs != nil {
			return res
		}
		res.Release()
	}
	t.Fatal("no run took a chunk set from the pool")
	return nil
}

// sharedAtom reports whether e is one of the canonical atoms every
// universe shares, which no chunk holds.
func sharedAtom(e *expr.Expr) bool {
	return e == expr.Bot || (e.Kind == expr.Const && e.C >= -128 && e.C <= 1024)
}

// TestResultReleaseClearsSlabs holds Result.Release to DESIGN §17: the
// chunk set that goes back to slabPool holds no pointer into the finished
// routine or its expression universe. Every class and member chunk is
// zero, whole; every class and predicate expression the Result held, all
// carved from the universe's chunks, is a zero node; and the Result
// itself keeps nothing.
func TestResultReleaseClearsSlabs(t *testing.T) {
	res := releasedRun(t)
	s := res.slabs
	var classes []*class
	var nodes []*expr.Expr
	keep := func(e *expr.Expr) {
		if e != nil && !sharedAtom(e) {
			nodes = append(nodes, e)
		}
	}
	for _, c := range res.classOf {
		if c != nil {
			classes = append(classes, c)
			keep(c.expr)
		}
	}
	for _, p := range res.blockPred {
		keep(p)
	}
	for _, p := range res.edgePred {
		keep(p)
	}
	if len(classes) == 0 || len(nodes) == 0 {
		t.Fatalf("figure1 left %d classes and %d universe nodes to check", len(classes), len(nodes))
	}
	res.Release()

	if !reflect.ValueOf(res).Elem().IsZero() {
		t.Error("a released Result keeps some of its fields")
	}
	for k, c := range classes {
		if !reflect.ValueOf(c).Elem().IsZero() {
			t.Errorf("class %d survived Release: %+v", k, *c)
		}
	}
	for k, e := range nodes {
		if !reflect.ValueOf(e).Elem().IsZero() {
			t.Errorf("universe node %d survived Release: kind %d, C %d", k, e.Kind, e.C)
		}
	}
	s.classes.Each(func(chunk []class) {
		for k := range chunk {
			if !reflect.ValueOf(&chunk[k]).Elem().IsZero() {
				t.Fatalf("a pooled class chunk holds %+v at %d", chunk[k], k)
			}
		}
	})
	s.members.Each(func(chunk []ir.InstrID) {
		for k, m := range chunk {
			if m != 0 {
				t.Fatalf("a pooled member chunk holds %d at %d", m, k)
			}
		}
	})
}

// TestReleasedResultQueriesPanic: a query on a released Result panics
// instead of answering from recycled memory.
func TestReleasedResultQueriesPanic(t *testing.T) {
	res := analyze(t, figure1Source, DefaultConfig())
	r := res.Routine
	v := r.Params[0]
	e := r.Entry().Succs[0]
	res.Release()
	for _, q := range []struct {
		name string
		call func()
	}{
		{"ValueReachable", func() { res.ValueReachable(v) }},
		{"Congruent", func() { res.Congruent(v, v) }},
		{"ConstValue", func() { res.ConstValue(v) }},
		{"Leader", func() { res.Leader(v) }},
		{"BlockReachable", func() { res.BlockReachable(r.Entry()) }},
		{"EdgeReachable", func() { res.EdgeReachable(e) }},
		{"EdgePredicate", func() { res.EdgePredicate(e) }},
		{"BlockPredicate", func() { res.BlockPredicate(r.Entry()) }},
		{"Count", func() { res.Count() }},
		{"ReturnConst", func() { res.ReturnConst() }},
		{"Partition", func() { res.Partition() }},
		{"Explain", func() { res.Explain(v) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a released Result did not panic", q.name)
				}
			}()
			q.call()
		}()
	}
}
