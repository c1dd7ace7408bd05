package workload_test

import (
	"testing"

	"pgvn/internal/ir"
	"pgvn/internal/ssa"
	"pgvn/internal/workload"
)

// TestCloneIndependenceCorpus clones every routine of the small-scale
// corpus, before and after SSA construction, and holds each clone to four
// properties: it verifies, it prints byte-identically, it shares no
// *Instr, *Block or *Edge with its source, and mutating it leaves the
// source untouched. Clone carves its objects and their backing arrays
// from a few slabs, so an aliasing bug there would show up as a
// mutation leaking into the source — or, within the clone, as a
// divergence from the same mutations applied to an independently built
// twin of the source.
//
// ssa.BuildFrom copies too: it builds the SSA form of a pre-SSA routine
// as a new routine. Its result is held to the same properties against
// its source, and to equality with the in-place ssa.Build of a twin
// before and after identical mutations.
func TestCloneIndependenceCorpus(t *testing.T) {
	for _, stage := range []string{"pre-SSA", "SSA"} {
		srcs, twins := corpusRoutines(t, stage), corpusRoutines(t, stage)
		for k, src := range srcs {
			checkClone(t, stage, src, twins[k])
		}
	}
	srcs, twins := corpusRoutines(t, "pre-SSA"), corpusRoutines(t, "pre-SSA")
	for k, src := range srcs {
		checkBuildFrom(t, src, twins[k])
	}
}

func checkBuildFrom(t *testing.T, src, twin *ir.Routine) {
	t.Helper()
	name := "BuildFrom " + src.Name
	want := src.String()
	out, err := ssa.BuildFrom(src, ssa.SemiPruned)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if err := ssa.Build(twin, ssa.SemiPruned); err != nil {
		t.Fatalf("%s: in-place Build of the twin: %v", name, err)
	}
	if got := src.String(); got != want {
		t.Fatalf("%s: BuildFrom changed its source:\n%s\nvs\n%s", name, got, want)
	}
	if got, tw := out.String(), twin.String(); got != tw {
		t.Fatalf("%s: BuildFrom and in-place Build differ:\n%s\nvs\n%s", name, got, tw)
	}
	if what := sharedWith(src, out); what != "" {
		t.Fatalf("%s: result shares %s with its source", name, what)
	}
	mutate(t, out)
	mutate(t, twin)
	if got := src.String(); got != want {
		t.Fatalf("%s: mutating the result changed the source:\n%s\nvs\n%s", name, got, want)
	}
	if err := src.Verify(); err != nil {
		t.Fatalf("%s: source Verify after mutating the result: %v", name, err)
	}
	if got, tw := out.String(), twin.String(); got != tw {
		t.Fatalf("%s: mutated result diverges from the identically mutated twin:\n%s\nvs\n%s", name, got, tw)
	}
}

// corpusRoutines generates the scale-0.05 corpus, converted to SSA when
// stage says so. Generation is deterministic, so two calls yield
// structurally identical, independently allocated routines.
func corpusRoutines(t *testing.T, stage string) []*ir.Routine {
	t.Helper()
	var out []*ir.Routine
	for _, b := range workload.Corpus(0.05) {
		for _, r := range b.Routines {
			if stage == "SSA" {
				if err := ssa.Build(r, ssa.SemiPruned); err != nil {
					t.Fatalf("%s: %v", r.Name, err)
				}
			}
			out = append(out, r)
		}
	}
	return out
}

func checkClone(t *testing.T, stage string, src, twin *ir.Routine) {
	t.Helper()
	name := stage + " " + src.Name
	want := src.String()
	c := src.Clone()
	if err := c.Verify(); err != nil {
		t.Fatalf("%s: clone Verify: %v", name, err)
	}
	if got := c.String(); got != want {
		t.Fatalf("%s: clone prints differently:\n%s\nvs\n%s", name, got, want)
	}
	if what := sharedWith(src, c); what != "" {
		t.Fatalf("%s: clone shares %s with its source", name, what)
	}

	mutate(t, c)
	mutate(t, twin)
	if got := src.String(); got != want {
		t.Fatalf("%s: mutating the clone changed the source:\n%s\nvs\n%s", name, got, want)
	}
	if err := src.Verify(); err != nil {
		t.Fatalf("%s: source Verify after clone mutation: %v", name, err)
	}
	if got, tw := c.String(), twin.String(); got != tw {
		t.Fatalf("%s: mutated clone diverges from the identically mutated twin:\n%s\nvs\n%s", name, got, tw)
	}
}

// sharedWith names the first IR object or backing array reachable from
// clone c that is also reachable from src, or returns "".
func sharedWith(src, c *ir.Routine) string {
	instrs := map[*ir.Instr]bool{}
	blocks := map[*ir.Block]bool{}
	edges := map[*ir.Edge]bool{}
	walk(src, func(i *ir.Instr) { instrs[i] = true },
		func(b *ir.Block) { blocks[b] = true },
		func(e *ir.Edge) { edges[e] = true })
	arrays := map[any]bool{}
	eachArray(src, func(p any, _ string) { arrays[p] = true })
	what := ""
	eachArray(c, func(p any, name string) {
		if what == "" && arrays[p] {
			what = name
		}
	})
	walk(c, func(i *ir.Instr) {
		if what == "" && instrs[i] {
			what = "instruction " + i.ValueName()
		}
	}, func(b *ir.Block) {
		if what == "" && blocks[b] {
			what = "block " + b.Name
		}
	}, func(e *ir.Edge) {
		if what == "" && edges[e] {
			what = "edge " + e.String()
		}
	})
	return what
}

// eachArray calls f with the address of the first element of every
// non-empty backing array r's own objects hold — instruction lists,
// arguments, use lists, edge lists, switch cases and parameters — and a
// description of its owner.
func eachArray(r *ir.Routine, f func(p any, name string)) {
	instrs := func(s []*ir.Instr, name string) {
		if len(s) > 0 {
			f(&s[0], name)
		}
	}
	edges := func(s []*ir.Edge, name string) {
		if len(s) > 0 {
			f(&s[0], name)
		}
	}
	instrs(r.Params, "parameter list")
	for _, b := range r.Blocks {
		instrs(b.Instrs, "instruction list of "+b.Name)
		edges(b.Preds, "predecessor list of "+b.Name)
		edges(b.Succs, "successor list of "+b.Name)
		if len(b.Cases) > 0 {
			f(&b.Cases[0], "switch cases of "+b.Name)
		}
		for _, i := range b.Instrs {
			instrs(i.Args, "arguments of "+i.ValueName())
			instrs(i.Uses(), "use list of "+i.ValueName())
		}
	}
}

// walk visits every instruction, block and edge reachable from r's block
// list: instructions with their arguments and users, blocks with their
// edges and the edges' endpoints, and the parameters.
func walk(r *ir.Routine, fi func(*ir.Instr), fb func(*ir.Block), fe func(*ir.Edge)) {
	for _, p := range r.Params {
		fi(p)
	}
	for _, b := range r.Blocks {
		fb(b)
		for _, i := range b.Instrs {
			fi(i)
			for _, a := range i.Args {
				if a != nil {
					fi(a)
				}
			}
			for _, u := range i.Uses() {
				fi(u)
			}
		}
		for _, es := range [][]*ir.Edge{b.Preds, b.Succs} {
			for _, e := range es {
				fe(e)
				fb(e.From)
				fb(e.To)
			}
		}
	}
}

// mutate applies a fixed, position-determined sequence of edits that
// shrink and grow every carved array: an argument rewrite, a use-list
// transfer and instruction removal, an instruction insertion, and an edge
// removal followed by two edge additions. Identical routines receive
// identical edits.
func mutate(t *testing.T, r *ir.Routine) {
	t.Helper()
	var values []*ir.Instr
	r.Instrs(func(i *ir.Instr) {
		if i.HasValue() {
			values = append(values, i)
		}
	})
	if len(values) < 2 {
		t.Fatalf("%s: too few values to mutate", r.Name)
	}
	first := values[0]
	// SetArg: point the first argument-taking instruction's first slot
	// at the first value (or the second, if it already is the first).
	r.Instrs(func(i *ir.Instr) {
		if first == nil || len(i.Args) == 0 || i.Args[0] == nil {
			return
		}
		v := first
		if i.Args[0] == v {
			v = values[1]
		}
		i.SetArg(0, v)
		first = nil
	})
	// ReplaceUses + RemoveInstr: move the users of the last used value
	// that is not a parameter onto the first value (growing its use
	// list), then delete it.
	for k := len(values) - 1; k > 0; k-- {
		x := values[k]
		if x.Op == ir.OpParam || x.NumUses() == 0 || x == values[0] {
			continue
		}
		x.ReplaceUses(values[0])
		r.RemoveInstr(x)
		break
	}
	// InsertBefore: grow the entry block's instruction list.
	entry := r.Entry()
	r.InsertBefore(entry.Instrs[len(entry.Instrs)-1], ir.OpConst).Const = 42
	// RemoveEdge, then AddEdge twice: shrink one block's successor list
	// and its target's predecessor list (and φ argument lists), then grow
	// them past their original length.
	for _, b := range r.Blocks {
		if len(b.Succs) > 0 {
			to := b.Succs[0].To
			r.RemoveEdge(b.Succs[0])
			r.AddEdge(b, to)
			r.AddEdge(b, to)
			break
		}
	}
}
