package core

import (
	"math"
	"reflect"
	"testing"

	"pgvn/internal/expr"
	"pgvn/internal/parser"
	"pgvn/internal/slab"
	"pgvn/internal/ssa"
)

// lentRun analyzes Figure 1 in w, its Result carving from the chunk set
// w lends it.
func lentRun(t *testing.T, w *Workspace) *Result {
	t.Helper()
	r, err := parser.ParseRoutine(figure1Source)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := ssa.BuildIn(w.SSA(), r, ssa.SemiPruned); err != nil {
		t.Fatalf("ssa: %v", err)
	}
	res, err := RunIn(w, r, DefaultConfig())
	if err != nil {
		t.Fatalf("gvn: %v", err)
	}
	if res.slabs == nil {
		t.Fatal("RunIn lent the Result no chunk set")
	}
	return res
}

// sharedAtom reports whether e is one of the canonical atoms every
// universe shares, which no chunk holds.
func sharedAtom(e *expr.Expr) bool {
	return e == expr.Bot || (e.Kind == expr.Const && e.C >= -128 && e.C <= 1024)
}

// TestResultReleaseClearsSlabs holds Result.Release to DESIGN §17: the
// chunk set that goes back to the workspace holds no pointer into the
// finished routine or its expression universe. Every class and member
// chunk is zero, whole; every class and predicate expression the Result
// held, all carved from the universe's chunks, is a zero node; and the
// Result itself keeps nothing. The second run carves through the set the
// first one handed back.
func TestResultReleaseClearsSlabs(t *testing.T) {
	w := &Workspace{}
	first := lentRun(t, w)
	lent := first.slabs
	first.Release()
	w.Reset()
	res := lentRun(t, w)
	s := res.slabs
	if s != lent {
		t.Fatal("the second run did not carve through the chunk set the first handed back")
	}
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
	if len(classes) == 0 || len(nodes) == 0 {
		t.Fatalf("figure1 left %d classes and %d universe nodes to check", len(classes), len(nodes))
	}
	res.Release()

	if !reflect.ValueOf(res).Elem().IsZero() {
		t.Error("a released Result keeps some of its fields")
	}
	if w.slabs != s {
		t.Error("Release did not hand the chunk set back to the workspace")
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
	for _, chunk := range wholeChunks(&s.classes) {
		for k := range chunk {
			if !reflect.ValueOf(&chunk[k]).Elem().IsZero() {
				t.Fatalf("a returned class chunk holds %+v at %d", chunk[k], k)
			}
		}
	}
	for _, chunk := range wholeChunks(&s.members) {
		for k, m := range chunk {
			if m != 0 {
				t.Fatalf("a returned member chunk holds %d at %d", m, k)
			}
		}
	}
	s.classes.Clear() // wholeChunks handed every chunk out again
	s.members.Clear()
}

// wholeChunks hands out every chunk of a cleared set, each whole: Next
// returns the spares in order, cut to their full capacity.
func wholeChunks[T any](c *slab.Chunks[T]) [][]T {
	out := make([][]T, reflect.ValueOf(c).Elem().FieldByName("list").Len())
	for k := range out {
		out[k] = c.Next(math.MaxInt, 0)
	}
	return out
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
		{"PredicateInfo", func() { res.PredicateInfo(r.Entry()) }},
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
