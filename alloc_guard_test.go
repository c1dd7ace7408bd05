package pgvn

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"runtime/metrics"
	"strings"
	"testing"
	"time"

	"pgvn/internal/core"
	"pgvn/internal/driver"
	"pgvn/internal/ir"
	"pgvn/internal/opt"
	"pgvn/internal/opt/pre"
	"pgvn/internal/parser"
	"pgvn/internal/server"
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
// materializers' id tables and Verify's tables come from a workspace
// (DESIGN §17), measured here in the form the driver uses: one
// ssa.Scratch, the built routine released and the scratch reset after
// each run. Verify 2 → 0, ssa.BuildFrom 90 → 2, Clone+ssa.Build
// 120 → 39. The ceilings leave headroom over the counts but fail loudly
// if a map-keyed table, a table made per call or per-object allocation
// returns.
func TestFrontEndAllocGuard(t *testing.T) {
	src, err := parser.ParseRoutine(figure1Source)
	if err != nil {
		t.Fatal(err)
	}
	sc := new(ssa.Scratch)
	parseAllocs := testing.AllocsPerRun(20, func() {
		if _, err := parser.ParseRoutine(figure1Source); err != nil {
			t.Fatal(err)
		}
	})
	verifyAllocs := testing.AllocsPerRun(20, func() {
		if err := src.VerifyIn(&sc.IR); err != nil {
			t.Fatal(err)
		}
		sc.Reset()
	})
	cloneAllocs := testing.AllocsPerRun(20, func() { _ = src.Clone() })
	buildAllocs := testing.AllocsPerRun(20, func() {
		if err := ssa.BuildIn(sc, src.Clone(), ssa.SemiPruned); err != nil {
			t.Fatal(err)
		}
		sc.Reset()
	})
	buildFromAllocs := testing.AllocsPerRun(20, func() {
		r, err := ssa.BuildFromIn(sc, src, ssa.SemiPruned)
		if err != nil {
			t.Fatal(err)
		}
		r.Release()
		sc.Reset()
	})
	t.Logf("figure1: ParseRoutine %.0f, Verify %.0f, Clone %.0f, Clone+ssa.Build %.0f, "+
		"ssa.BuildFrom %.0f allocs/run",
		parseAllocs, verifyAllocs, cloneAllocs, buildAllocs, buildFromAllocs)
	for _, g := range []struct {
		what   string
		allocs float64
		max    float64
	}{
		{"Verify", verifyAllocs, 1},
		{"Clone", cloneAllocs, 12},
		{"Clone+ssa.Build", buildAllocs, 44},
		{"ParseRoutine", parseAllocs, 190},
		{"ssa.BuildFrom", buildFromAllocs, 12},
	} {
		if g.allocs > g.max {
			t.Errorf("%s(figure1) allocates %.0f objects/run, want ≤ %.0f — "+
				"a map-keyed side table, a per-call scratch table or per-object allocation is back in the front end",
				g.what, g.allocs, g.max)
		}
	}
}

// TestOptAllocGuard gates redundancy elimination's allocation count on
// an optimized Figure 1, analyzed in a workspace as the driver does.
// With its dominator tree built in the Result's workspace and its
// position table dense by id, a run allocates that table alone; a tree
// made per call, or a map keyed by instruction, takes it to a dozen.
func TestOptAllocGuard(t *testing.T) {
	src, err := parser.ParseRoutine(figure1Source)
	if err != nil {
		t.Fatal(err)
	}
	ws := new(core.Workspace)
	r, err := ssa.BuildFromIn(ws.SSA(), src, ssa.SemiPruned)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.RunIn(ws, r, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := opt.Apply(res); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() { opt.EliminateRedundancies(res) })
	t.Logf("figure1: EliminateRedundancies %.0f allocs/run", allocs)
	if allocs > 2 {
		t.Fatalf("EliminateRedundancies(figure1) allocates %.0f objects/run, want ≤ 2 — "+
			"its dominator tree is no longer built in the workspace", allocs)
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
// carve from: 117.8 → 32.5–33.4 KB. With one workspace per worker the
// batch reads 31.6 KB. The ceiling leaves about 10% headroom. Under the
// race detector sync.Pool drops a quarter of its Puts, so the batch
// sometimes starts from a fresh workspace and reads 36.0 KB instead of
// 31.9 KB.
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
	run() // warm the workspace pool
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	perRoutine := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(routines)) / 1024
	t.Logf("%d routines: driver.Run allocates %.1f KB per routine", len(routines), perRoutine)
	max := 37.0
	if raceEnabled {
		max = 40 // a dropped Put starts the batch from a fresh workspace
	}
	if perRoutine > max {
		t.Fatalf("driver.Run allocates %.1f KB per routine, want ≤ %.0f KB — "+
			"per-routine scratch or a finished routine's storage is being made and dropped again",
			perRoutine, max)
	}
}

// TestAnalysisHeapBounded gates what the workspaces of the driver path
// keep alive between routines. A workspace may hold capacity but never a
// pointer into a finished routine or expression universe: the interner
// used to carve each universe from the previous one's bump-chunk tails,
// so a recycled interner pinned a chain of chunks back through every
// routine the process had analyzed (≈26 KB per routine, unbounded in
// gvnd). The cases run the whole driver path — parse, ssa.BuildFrom,
// core.Run, opt — so every part of a workspace is populated: SSA
// construction's builder, ir's id tables, dom's trees, the analysis
// scratch and, since the driver releases every finished routine, the
// SSA storage and the universe, class and member chunks.
//
// The heap case optimizes the corpus K times with no collection in
// between, then collects once, so the pooled workspaces survive in the
// victim cache, and compares the live heap against the one before the
// runs: it must not grow with K. The gvnd case does the same with K
// rounds of cold optimize requests, each round's units new, at an
// in-process gvnd without a hot tier or a driver cache. The finalizer
// case drops a parsed routine and its optimized SSA form while the
// workspaces sit in the pool; one collection must find both unreachable.
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
	// bounded checks that k calls of pass leave the live heap, after one
	// collection, where one call leaves it.
	bounded := func(t *testing.T, what string, pass func()) {
		growth := func(k int) int64 {
			runtime.GC()
			runtime.GC() // drop any pool entry from earlier runs
			before := liveHeap()
			for range k {
				pass()
			}
			runtime.GC()
			return liveHeap() - before
		}
		g1, g4 := growth(1), growth(4)
		t.Logf("%s: live heap %+d KB after 1 pass, %+d KB after 4", what, g1>>10, g4>>10)
		const slack = 1 << 20
		if g4-g1 > slack {
			t.Fatalf("live heap after 4 passes exceeds 1 pass by %d KB, want ≤ %d KB — "+
				"a workspace on the driver path pins finished routines or universes",
				(g4-g1)>>10, slack>>10)
		}
	}

	t.Run("heap", func(t *testing.T) {
		bounded(t, fmt.Sprintf("%d routines", len(routines)), func() {
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
		})
	})

	t.Run("gvnd", func(t *testing.T) {
		srv := server.New(server.Config{Jobs: 2})
		if err := srv.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		defer srv.Shutdown(context.Background())
		url := "http://" + srv.Addr + "/v1/optimize"
		round := 0
		bounded(t, "40 cold requests", func() {
			for i := range 40 {
				body, err := json.Marshal(server.OptimizeRequest{Source: coldUnit(round, i), PRE: true})
				if err != nil {
					t.Fatal(err)
				}
				resp, err := http.Post(url, "application/json", bytes.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("round %d, unit %d: status %d", round, i, resp.StatusCode)
				}
			}
			round++
		})
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
					"a workspace on the driver path pins it", w.what)
			}
		}
	})
}

// coldUnit is unit i of request round round: 1–4 routines no earlier
// round generated, SPEC-shaped for even i and from the GVN-PRE family
// for odd i.
func coldUnit(round, i int) string {
	var sb strings.Builder
	for j := 0; j < 1+i/2%4; j++ {
		r := workload.Generate(fmt.Sprintf("c%d_%d_%d", round, i, j), workload.GenConfig{
			Seed:              int64(round*1000 + i*10 + j),
			Stmts:             14 + (i*7+j)%20,
			Params:            1 + j%3,
			MaxLoopDepth:      2,
			PartialRedundancy: i%2 == 1,
		})
		sb.WriteString(workload.SourceText(r))
		sb.WriteString("\n")
	}
	return sb.String()
}
