package pgvn

import (
	"testing"

	"pgvn/internal/core"
	"pgvn/internal/opt/pre"
	"pgvn/internal/parser"
	"pgvn/internal/ssa"
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
// Clone+ssa.Build 700 → 188. The ceilings leave headroom over the new
// counts but fail loudly if a map-keyed table or per-object allocation
// returns.
func TestFrontEndAllocGuard(t *testing.T) {
	src, err := parser.ParseRoutine(figure1Source)
	if err != nil {
		t.Fatal(err)
	}
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
	t.Logf("figure1: Verify %.0f, Clone %.0f, Clone+ssa.Build %.0f allocs/run",
		verifyAllocs, cloneAllocs, buildAllocs)
	for _, g := range []struct {
		what   string
		allocs float64
		max    float64
	}{
		{"Verify", verifyAllocs, 4},
		{"Clone", cloneAllocs, 16},
		{"Clone+ssa.Build", buildAllocs, 240},
	} {
		if g.allocs > g.max {
			t.Errorf("%s(figure1) allocates %.0f objects/run, want ≤ %.0f — "+
				"a map-keyed side table or per-object allocation is back in the front end",
				g.what, g.allocs, g.max)
		}
	}
}
