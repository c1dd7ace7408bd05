package pgvn

import (
	"context"
	"runtime"
	"runtime/metrics"
	"testing"
	"time"

	"pgvn/internal/core"
	"pgvn/internal/driver"
	"pgvn/internal/ir"
	"pgvn/internal/opt"
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
// for Clone+ssa.Build). SSA construction's tables and plan, the
// materializers' id tables and Verify's tables now come from pools
// (DESIGN §17): Verify 2 → 0, ssa.BuildFrom 90 → 8, Clone+ssa.Build
// 120 → 39, ParseRoutine 181 → 179. The ceilings leave headroom over the
// new counts, at most one allocation for a pooled call since a
// collection during the measurement can empty a pool, but fail loudly
// if a map-keyed table, an unpooled scratch table or per-object
// allocation returns. Under the race detector sync.Pool drops a quarter
// of its Puts on purpose, so pooled calls are held to their pre-pool
// ceilings there.
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
		what         string
		allocs       float64
		max, raceMax float64
	}{
		{"Verify", verifyAllocs, 1, 4},
		{"Clone", cloneAllocs, 12, 12},
		{"Clone+ssa.Build", buildAllocs, 44, 240},
		{"ParseRoutine", parseAllocs, 190, 200},
		{"ssa.BuildFrom", buildFromAllocs, 12, 110},
	} {
		max := g.max
		if raceEnabled {
			max = g.raceMax
		}
		if g.allocs > max {
			t.Errorf("%s(figure1) allocates %.0f objects/run, want ≤ %.0f — "+
				"a map-keyed side table, unpooled scratch or per-object allocation is back in the front end",
				g.what, g.allocs, max)
		}
	}
}

// TestOptAllocGuard gates redundancy elimination's allocation count on
// an optimized Figure 1. With its dominator tree returned to dom's pool
// and its position table dense by id, a run allocates that table alone;
// a tree dropped to the collector, or a map keyed by instruction, takes
// it to a dozen.
func TestOptAllocGuard(t *testing.T) {
	src, err := parser.ParseRoutine(figure1Source)
	if err != nil {
		t.Fatal(err)
	}
	r, err := ssa.BuildFrom(src, ssa.SemiPruned)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(r, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := opt.Apply(res); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() { opt.EliminateRedundancies(res) })
	t.Logf("figure1: EliminateRedundancies %.0f allocs/run", allocs)
	max := 2.0
	if raceEnabled {
		max = 8 // sync.Pool drops a quarter of its Puts under the race detector
	}
	if allocs > max {
		t.Fatalf("EliminateRedundancies(figure1) allocates %.0f objects/run, want ≤ %.0f — "+
			"its dominator tree no longer goes back to the pool", allocs, max)
	}
}

// TestDriverBytesGuard gates the bytes driver.Run allocates per routine
// over the half-scale corpus, read from runtime.MemStats.TotalAlloc
// around one warm batch. An object-count guard cannot see one large
// scratch table come back as a per-routine make; this one can. Pooling
// SSA construction's tables and plan, the materializers' and Verify's
// id tables and opt's dominator tree, and indexing opt's and Count's
// tables by id, took the corpus from 192 to 117 KB per routine. The
// driver then released each finished routine's SSA storage and its
// Result's universe, class and member chunks for the next routine to
// carve from: 117.8 → 32.5–33.4 KB. The ceiling leaves about 10% headroom.
// Under the race detector, where sync.Pool drops a quarter of its Puts,
// the batch reads 141–145 KB.
func TestDriverBytesGuard(t *testing.T) {
	var routines []*ir.Routine
	for _, bm := range workload.Corpus(0.5) {
		routines = append(routines, bm.Routines...)
	}
	d := driver.New(driver.Config{Core: core.DefaultConfig(), Jobs: 1})
	run := func() {
		if err := d.Run(context.Background(), routines).Err(); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the pools
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	perRoutine := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(routines)) / 1024
	t.Logf("%d routines: driver.Run allocates %.1f KB per routine", len(routines), perRoutine)
	max := 37.0
	if raceEnabled {
		max = 160 // sync.Pool drops a quarter of its Puts under the race detector
	}
	if perRoutine > max {
		t.Fatalf("driver.Run allocates %.1f KB per routine, want ≤ %.0f KB — "+
			"per-routine scratch or a finished routine's storage is being made and dropped again",
			perRoutine, max)
	}
}

// TestAnalysisHeapBounded gates what the pooled scratch of the driver
// path keeps alive between routines. A pool may hold capacity but never
// a pointer into a finished routine or expression universe: the
// interner used to carve each universe from the previous one's
// bump-chunk tails, so the pooled interner pinned a chain of chunks back
// through every routine the process had analyzed (≈26 KB per routine,
// unbounded in gvnd). Both cases run the whole driver path — parse,
// ssa.BuildFrom, core.Run, opt — so every pool on it is populated: SSA
// construction's builder, ir's id tables, dom's trees, the analysis
// scratch and, since the driver releases every finished routine, the
// SSA storage and the universe, class and member chunks.
//
// The heap case optimizes the corpus K times with no collection in
// between, then collects once, so the pool entries survive in the
// victim cache, and compares the live heap against the one before the
// runs: it must not grow with K. The finalizer case drops a parsed
// routine and its optimized SSA form while the scratch sits in the
// pools; one collection must find both unreachable.
func TestAnalysisHeapBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("optimizes the half-scale corpus five times")
	}
	var units []string
	var routines []*ir.Routine
	for _, bm := range workload.Corpus(0.5) {
		units = append(units, workload.CorpusSource(bm))
		routines = append(routines, bm.Routines...)
	}
	cfg := core.DefaultConfig()
	d := driver.New(driver.Config{Core: cfg, Jobs: 1})
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
			for _, src := range units {
				unit, err := parser.Parse(src)
				if err != nil {
					t.Fatal(err)
				}
				batch := d.Run(context.Background(), unit)
				if err := batch.Err(); err != nil {
					t.Fatal(err)
				}
			}
		}
		runtime.GC()
		return liveHeap() - before
	}

	t.Run("heap", func(t *testing.T) {
		g1, g4 := growth(1), growth(4)
		t.Logf("%d routines: live heap %+d KB after 1 pass, %+d KB after 4",
			len(routines), g1>>10, g4>>10)
		const slack = 1 << 20
		if g4-g1 > slack {
			t.Fatalf("live heap after 4 corpus passes exceeds 1 pass by %d KB, want ≤ %d KB — "+
				"a pool on the driver path pins finished routines or universes",
				(g4-g1)>>10, slack>>10)
		}
	})

	t.Run("finalizer", func(t *testing.T) {
		// A routine is cyclic (its blocks point back at it), and a
		// finalizer on an object reachable from itself never runs. So
		// each finalizer sits on a pointer-free leaf that only its
		// routine references: a fresh copy of one switch's case list, at
		// least 16 bytes so the tiny allocator cannot pack it with other
		// objects. The routine is the first in the corpus whose SSA form
		// gains φs and keeps a switch through opt, so the builder's plan
		// points into the parsed routine and the id tables into the
		// optimized one when the pipeline finishes.
		pipeline := func(r *ir.Routine) (src, out *ir.Routine) {
			src, err := parser.ParseRoutine(workload.SourceText(r))
			if err != nil {
				t.Fatal(err)
			}
			out, err = ssa.BuildFrom(src, ssa.SemiPruned)
			if err != nil {
				t.Fatal(err)
			}
			res, err := core.Run(out, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := opt.Apply(res); err != nil {
				t.Fatal(err)
			}
			return src, out
		}
		switchOf := func(r *ir.Routine) *ir.Block {
			for _, b := range r.Blocks {
				if len(b.Cases) > 0 {
					return b
				}
			}
			return nil
		}
		hasPhi := func(r *ir.Routine) bool {
			for _, b := range r.Blocks {
				if len(b.Phis()) > 0 {
					return true
				}
			}
			return false
		}
		watch := func(b *ir.Block) chan struct{} {
			cases := make([]int64, len(b.Cases), len(b.Cases)+2)
			copy(cases, b.Cases)
			b.Cases = cases
			collected := make(chan struct{})
			runtime.SetFinalizer(&b.Cases[0], func(*int64) { close(collected) })
			return collected
		}
		var parsed, optimized chan struct{}
		for _, r := range routines {
			if switchOf(r) == nil {
				continue
			}
			src, out := pipeline(r)
			if switchOf(out) != nil && hasPhi(out) {
				parsed, optimized = watch(switchOf(src)), watch(switchOf(out))
				break
			}
		}
		if parsed == nil {
			t.Fatal("no routine in the corpus keeps a switch and gains φs")
		}
		runtime.GC()
		for _, w := range []struct {
			what      string
			collected chan struct{}
		}{{"parsed", parsed}, {"optimized", optimized}} {
			select {
			case <-w.collected:
			case <-time.After(5 * time.Second):
				t.Fatalf("the %s routine survived a collection after it was dropped — "+
					"a pool on the driver path pins it", w.what)
			}
		}
	})
}
