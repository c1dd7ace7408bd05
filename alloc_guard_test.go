package pgvn

import (
	"runtime"
	"runtime/metrics"
	"testing"
	"time"

	"pgvn/internal/core"
	"pgvn/internal/ir"
	"pgvn/internal/opt/pre"
	"pgvn/internal/parser"
	"pgvn/internal/ssa"
	"pgvn/internal/workload"
)

// TestFixpointAllocGuard gates the analysis hot path's allocation count.
// The hash-consed expression representation brought the Figure 1 routine
// from ~1170 allocations per core.Run to ~430; the arena/pooled core
// (recycled dominator trees, RPO orders, interner slabs and analysis
// scratch) brought it to ~100 — interner universe nodes, congruence
// classes and result maps, nothing per evaluation and nothing per
// CFG/dominator construction. The bound below leaves headroom for
// benign drift but fails loudly if per-evaluation allocation (string
// keys, un-reused scratch, un-pooled construction) creeps back into
// the fixpoint.
func TestFixpointAllocGuard(t *testing.T) {
	r, err := parser.ParseRoutine(figure1Source)
	if err != nil {
		t.Fatal(err)
	}
	if err := ssa.Build(r, ssa.SemiPruned); err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	// Warm once: lazily initialized package state must not count.
	if _, err := core.Run(r, cfg); err != nil {
		t.Fatal(err)
	}
	const maxAllocs = 160
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := core.Run(r, cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > maxAllocs {
		t.Fatalf("core.Run(figure1) allocates %.0f objects/run, want ≤ %d — "+
			"per-evaluation allocation has crept back into the fixpoint hot path",
			allocs, maxAllocs)
	}
}

// TestPREAllocGuard gates the PRE pass's own allocation count: the
// difference between a clone+analyze run with and without pre.Run on
// top. The pooled Partition, single-backing dataflow bitsets and lazy
// pass maps leave PRE around ten allocations on Figure 1; the ceiling
// fails loudly if per-merge or per-class allocation returns.
func TestPREAllocGuard(t *testing.T) {
	r, err := parser.ParseRoutine(figure1Source)
	if err != nil {
		t.Fatal(err)
	}
	if err := ssa.Build(r, ssa.SemiPruned); err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	if _, err := core.Run(r, cfg); err != nil {
		t.Fatal(err)
	}
	base := testing.AllocsPerRun(20, func() {
		c := r.Clone()
		if _, err := core.Run(c, cfg); err != nil {
			t.Fatal(err)
		}
	})
	withPre := testing.AllocsPerRun(20, func() {
		c := r.Clone()
		res, err := core.Run(c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pre.Run(res, pre.Options{}); err != nil {
			t.Fatal(err)
		}
	})
	const maxDelta = 60
	if delta := withPre - base; delta > maxDelta {
		t.Fatalf("pre.Run adds %.0f allocations on figure1 (%.0f with, %.0f without), want ≤ %d",
			delta, withPre, base, maxDelta)
	}
}

// TestFrontEndAllocGuard gates the pointer-IR front end's allocation
// counts on Figure 1. Verify, Clone and ssa.Build used to key their side
// tables by pointer in Go maps — Verify's membership set and use counts,
// Clone's old→new block and instruction maps, ssa.Build's def-site,
// φ-variable and per-variable placement sets, per-block renaming
// counters and per-block liveness bitsets — and Clone allocated every
// block, instruction, edge and backing array separately. They now index
// dense tables by Instr.ID and Block.ID and carve clones from a few
// counted slabs. Measured on Figure 1: Verify 16 → 2, Clone 352 → 9,
// Clone+ssa.Build 700 → 188. The parser now carves instructions,
// argument lists and first use slots from per-routine chunks and takes
// punctuation tokens as substrings (ParseRoutine 418 → 181), and
// ssa.BuildFrom materializes only the surviving instructions from a
// read-only plan, its new names cut from one string (90, against 120
// for Clone+ssa.Build). The ceilings leave headroom over the new counts
// but fail loudly if a map-keyed table or per-object allocation returns.
func TestFrontEndAllocGuard(t *testing.T) {
	src, err := parser.ParseRoutine(figure1Source)
	if err != nil {
		t.Fatal(err)
	}
	parseAllocs := testing.AllocsPerRun(20, func() {
		if _, err := parser.ParseRoutine(figure1Source); err != nil {
			t.Fatal(err)
		}
	})
	verifyAllocs := testing.AllocsPerRun(20, func() {
		if err := src.Verify(); err != nil {
			t.Fatal(err)
		}
	})
	cloneAllocs := testing.AllocsPerRun(20, func() { _ = src.Clone() })
	buildAllocs := testing.AllocsPerRun(20, func() {
		if err := ssa.Build(src.Clone(), ssa.SemiPruned); err != nil {
			t.Fatal(err)
		}
	})
	buildFromAllocs := testing.AllocsPerRun(20, func() {
		if _, err := ssa.BuildFrom(src, ssa.SemiPruned); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("figure1: ParseRoutine %.0f, Verify %.0f, Clone %.0f, Clone+ssa.Build %.0f, "+
		"ssa.BuildFrom %.0f allocs/run",
		parseAllocs, verifyAllocs, cloneAllocs, buildAllocs, buildFromAllocs)
	for _, g := range []struct {
		what   string
		allocs float64
		max    float64
	}{
		{"Verify", verifyAllocs, 4},
		{"Clone", cloneAllocs, 16},
		{"Clone+ssa.Build", buildAllocs, 240},
		{"ParseRoutine", parseAllocs, 200},
		{"ssa.BuildFrom", buildFromAllocs, 110},
	} {
		if g.allocs > g.max {
			t.Errorf("%s(figure1) allocates %.0f objects/run, want ≤ %.0f — "+
				"a map-keyed side table or per-object allocation is back in the front end",
				g.what, g.allocs, g.max)
		}
	}
}

// TestAnalysisHeapBounded gates what the pooled analysis scratch keeps
// alive between routines. A pool may hold capacity but never a pointer
// into a finished routine or expression universe: the interner used to
// carve each universe from the previous one's bump-chunk tails, so the
// pooled interner pinned a chain of chunks back through every routine
// the process had analyzed (≈26 KB per routine, unbounded in gvnd).
//
// The heap case analyzes the corpus K times with no collection in
// between, then collects once, so the pool entry survives in the victim
// cache, and compares the live heap against the one before the runs: it
// must not grow with K. The finalizer case drops an analyzed routine and
// its Result while the scratch sits in the pool; one collection must
// find the routine unreachable.
func TestAnalysisHeapBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("analyzes the half-scale corpus five times")
	}
	var routines []*ir.Routine
	for _, bm := range workload.Corpus(0.5) {
		for _, r := range bm.Routines {
			if err := ssa.Build(r, ssa.SemiPruned); err != nil {
				t.Fatal(err)
			}
			routines = append(routines, r)
		}
	}
	cfg := core.DefaultConfig()
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	liveHeap := func() int64 {
		metrics.Read(sample)
		return int64(sample[0].Value.Uint64())
	}
	// growth returns the live-heap delta k corpus passes leave behind
	// after one collection.
	growth := func(k int) int64 {
		runtime.GC()
		runtime.GC() // drop any pool entry from earlier runs
		before := liveHeap()
		for range k {
			for _, r := range routines {
				if _, err := core.Run(r, cfg); err != nil {
					t.Fatal(err)
				}
			}
		}
		runtime.GC()
		return liveHeap() - before
	}

	t.Run("heap", func(t *testing.T) {
		g1, g4 := growth(1), growth(4)
		t.Logf("%d routines: live heap +%d KB after 1 pass, +%d KB after 4",
			len(routines), g1>>10, g4>>10)
		const slack = 1 << 20
		if g4-g1 > slack {
			t.Fatalf("live heap after 4 corpus passes exceeds 1 pass by %d KB, want ≤ %d KB — "+
				"the pooled analysis scratch pins finished universes",
				(g4-g1)>>10, slack>>10)
		}
	})

	t.Run("finalizer", func(t *testing.T) {
		// A routine is cyclic (its blocks point back at it), and a
		// finalizer on an object reachable from itself never runs. So the
		// finalizer sits on a pointer-free leaf that only the routine
		// references: a fresh copy of one switch's case list, at least
		// 16 bytes so the tiny allocator cannot pack it with other objects.
		var sw *ir.Block
		r := func() *ir.Routine {
			for _, src := range routines {
				c := src.Clone()
				for _, b := range c.Blocks {
					if len(b.Cases) > 0 {
						sw = b
						return c
					}
				}
			}
			return nil
		}()
		if r == nil {
			t.Fatal("no routine in the corpus has a switch")
		}
		cases := make([]int64, len(sw.Cases), len(sw.Cases)+2)
		copy(cases, sw.Cases)
		sw.Cases = cases
		collected := make(chan struct{})
		runtime.SetFinalizer(&sw.Cases[0], func(*int64) { close(collected) })
		if _, err := core.Run(r, cfg); err != nil {
			t.Fatal(err)
		}
		r, sw = nil, nil
		runtime.GC()
		select {
		case <-collected:
		case <-time.After(5 * time.Second):
			t.Fatal("an analyzed routine survived a collection after its Result was dropped — " +
				"the pooled analysis scratch pins it")
		}
	})
}
