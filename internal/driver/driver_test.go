package driver

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"pgvn/internal/core"
	"pgvn/internal/ir"
	"pgvn/internal/opt"
	"pgvn/internal/parser"
	"pgvn/internal/ssa"
	"pgvn/internal/workload"
)

// corpusRoutines flattens the workload corpus. The full corpus (scale
// 1.0, ~690 routines) backs the determinism guarantee; -short shrinks it
// to keep the race runs quick.
func corpusRoutines(t testing.TB, scale float64) []*ir.Routine {
	t.Helper()
	if testing.Short() {
		scale = scale / 10
		if scale < 0.03 {
			scale = 0.03
		}
	}
	var out []*ir.Routine
	for _, b := range workload.Corpus(scale) {
		out = append(out, b.Routines...)
	}
	return out
}

// TestParallelMatchesSequential is the determinism guarantee: a Jobs: 8
// batch must be byte-identical to a Jobs: 1 batch over the full workload
// corpus, report for report and byte for byte.
func TestParallelMatchesSequential(t *testing.T) {
	routines := corpusRoutines(t, 1.0)
	seq := New(Config{Core: core.DefaultConfig(), Jobs: 1}).Run(context.Background(), routines)
	par := New(Config{Core: core.DefaultConfig(), Jobs: 8}).Run(context.Background(), routines)
	if err := seq.Err(); err != nil {
		t.Fatalf("sequential batch failed: %v", err)
	}
	if err := par.Err(); err != nil {
		t.Fatalf("parallel batch failed: %v", err)
	}
	if seq.Text() != par.Text() {
		t.Fatalf("parallel output differs from sequential output over %d routines", len(routines))
	}
	for i := range seq.Results {
		s, p := seq.Results[i], par.Results[i]
		if s.Name != p.Name || s.Text != p.Text || s.Report != p.Report {
			t.Fatalf("routine %d (%s): parallel result differs from sequential", i, s.Name)
		}
	}
}

// TestRecycledBatchesMatchFresh: the driver releases every finished
// routine's SSA form and analysis Result, so later routines carve from
// recycled memory. Recycling must change no byte: a Jobs: 1 batch and
// two Jobs: 4 batches in a row, the second over pools the first filled,
// all equal the pipeline run routine by routine with nothing released.
// PRE is on, so the optimizer also grows the recycled routines.
func TestRecycledBatchesMatchFresh(t *testing.T) {
	routines := corpusRoutines(t, 0.5)
	cfg := Config{Core: core.DefaultConfig(), PRE: true}
	want := make([]string, len(routines))
	for i, r := range routines {
		work, err := ssa.BuildFrom(r, cfg.Placement)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Run(work, cfg.Core)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := opt.ApplyWith(res, opt.Options{PRE: true}); err != nil {
			t.Fatal(err)
		}
		want[i] = work.String()
	}
	for _, jobs := range []int{1, 4, 4} {
		cfg.Jobs = jobs
		b := New(cfg).Run(context.Background(), routines)
		if err := b.Err(); err != nil {
			t.Fatal(err)
		}
		for i, rr := range b.Results {
			if rr.Text != want[i] {
				t.Fatalf("Jobs: %d, routine %d (%s): output differs from the unreleased pipeline",
					jobs, i, rr.Name)
			}
		}
	}
}

// TestInputRoutinesNotMutated checks the pipeline works on clones: the
// caller's routines stay in their pre-SSA form.
func TestInputRoutinesNotMutated(t *testing.T) {
	routines := corpusRoutines(t, 0.05)
	before := make([]string, len(routines))
	for i, r := range routines {
		before[i] = r.String()
	}
	b := New(Config{Core: core.DefaultConfig(), Jobs: 4}).Run(context.Background(), routines)
	if err := b.Err(); err != nil {
		t.Fatal(err)
	}
	for i, r := range routines {
		if r.String() != before[i] {
			t.Fatalf("routine %d (%s) was mutated by the driver", i, r.Name)
		}
	}
}

// TestPanicIsolation injects a panic into one routine of a batch and
// checks it becomes a structured RoutineError while every other routine
// completes normally.
func TestPanicIsolation(t *testing.T) {
	routines := corpusRoutines(t, 0.05)
	if len(routines) < 3 {
		t.Fatalf("corpus too small: %d routines", len(routines))
	}
	victim := routines[len(routines)/2].Name
	d := New(Config{Core: core.DefaultConfig(), Jobs: 4})
	d.preProcess = func(r *ir.Routine) {
		if r.Name == victim {
			panic("injected fault")
		}
	}
	b := d.Run(context.Background(), routines)
	if b.Stats.Failed != 1 {
		t.Fatalf("Failed = %d, want exactly the injected routine", b.Stats.Failed)
	}
	errs := b.Errors()
	if len(errs) != 1 {
		t.Fatalf("%d errors, want 1", len(errs))
	}
	re := errs[0]
	if re.Routine != victim || re.Stage != "panic" {
		t.Errorf("error = %+v, want panic in %s", re, victim)
	}
	if !strings.Contains(re.Err.Error(), "injected fault") {
		t.Errorf("panic value lost: %v", re.Err)
	}
	if re.Stack == "" {
		t.Errorf("panic error carries no stack")
	}
	var batchErr *RoutineError
	if !errors.As(b.Err(), &batchErr) {
		t.Fatalf("Batch.Err is not a *RoutineError: %v", b.Err())
	}
	for _, rr := range b.Results {
		if rr.Name == victim {
			continue
		}
		if rr.Err != nil || rr.Text == "" {
			t.Fatalf("healthy routine %s disturbed by the fault: %+v", rr.Name, rr.Err)
		}
	}
}

// TestCacheRoundTrip runs the same batch twice through a shared cache:
// the second run must be all hits and byte-identical.
func TestCacheRoundTrip(t *testing.T) {
	routines := corpusRoutines(t, 0.05)
	cache := NewCache()
	d := New(Config{Core: core.DefaultConfig(), Jobs: 4, Cache: cache})
	cold := d.Run(context.Background(), routines)
	if err := cold.Err(); err != nil {
		t.Fatal(err)
	}
	if cold.Stats.CacheHits != 0 || cold.Stats.CacheMisses != len(routines) {
		t.Errorf("cold batch: hits=%d misses=%d, want 0/%d",
			cold.Stats.CacheHits, cold.Stats.CacheMisses, len(routines))
	}
	warm := d.Run(context.Background(), routines)
	if err := warm.Err(); err != nil {
		t.Fatal(err)
	}
	if warm.Stats.CacheHits != len(routines) || warm.Stats.CacheMisses != 0 {
		t.Errorf("warm batch: hits=%d misses=%d, want %d/0",
			warm.Stats.CacheHits, warm.Stats.CacheMisses, len(routines))
	}
	if cold.Text() != warm.Text() {
		t.Errorf("cached output differs from computed output")
	}
	for i := range cold.Results {
		if cold.Results[i].Report != warm.Results[i].Report {
			t.Fatalf("routine %d: cached report differs", i)
		}
	}
	hits, misses, entries := cache.Stats()
	if hits != uint64(len(routines)) || misses != uint64(len(routines)) || entries != cache.Len() {
		t.Errorf("cache stats = %d hits, %d misses, %d entries", hits, misses, entries)
	}
}

// TestCacheKeyedByConfig checks two configurations never share entries.
func TestCacheKeyedByConfig(t *testing.T) {
	routines := corpusRoutines(t, 0.03)
	cache := NewCache()
	opt := New(Config{Core: core.DefaultConfig(), Jobs: 2, Cache: cache}).Run(context.Background(), routines)
	bal := New(Config{Core: core.BalancedConfig(), Jobs: 2, Cache: cache}).Run(context.Background(), routines)
	if opt.Stats.CacheMisses != len(routines) || bal.Stats.CacheMisses != len(routines) {
		t.Errorf("configurations shared cache entries: opt misses %d, bal misses %d, want %d each",
			opt.Stats.CacheMisses, bal.Stats.CacheMisses, len(routines))
	}
	if cache.Len() != 2*len(routines) {
		t.Errorf("cache holds %d entries, want %d", cache.Len(), 2*len(routines))
	}
}

// TestAnalyzeOnly checks the analysis-only mode produces reports but no
// rewritten text and applies no transformations.
func TestAnalyzeOnly(t *testing.T) {
	routines := corpusRoutines(t, 0.03)
	b := New(Config{Core: core.DefaultConfig(), Jobs: 2, AnalyzeOnly: true}).Run(context.Background(), routines)
	if err := b.Err(); err != nil {
		t.Fatal(err)
	}
	for _, rr := range b.Results {
		if rr.Text != "" {
			t.Fatalf("%s: analyze-only batch produced text", rr.Name)
		}
		if rr.Report.Counts.Values == 0 {
			t.Fatalf("%s: no analysis counts", rr.Name)
		}
		if rr.Report.Opt != (Report{}).Opt {
			t.Fatalf("%s: analyze-only batch applied transformations: %+v", rr.Name, rr.Report.Opt)
		}
	}
}

// TestContextCancellation checks an already-canceled context fails every
// routine with a queue-stage error and no pipeline work.
func TestContextCancellation(t *testing.T) {
	routines := corpusRoutines(t, 0.03)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	b := New(Config{Core: core.DefaultConfig(), Jobs: 4}).Run(ctx, routines)
	if b.Stats.Failed != len(routines) {
		t.Fatalf("Failed = %d, want %d", b.Stats.Failed, len(routines))
	}
	for _, rr := range b.Results {
		if rr.Err == nil || rr.Err.Stage != "queue" || !errors.Is(rr.Err, context.Canceled) {
			t.Fatalf("routine %s: err = %v, want queue-stage context.Canceled", rr.Name, rr.Err)
		}
	}
}

// TestRunSource exercises the source-text path every caller takes:
// parser.Parse, then Run on the parsed unit. A parse error stops it
// before any routine work.
func TestRunSource(t *testing.T) {
	d := New(Config{Core: core.DefaultConfig(), Jobs: 2})
	routines, err := parser.Parse("func f(a) {\nentry:\n  x = a + 0\n  return x\n}\n")
	if err != nil {
		t.Fatal(err)
	}
	b := d.Run(context.Background(), routines)
	if len(b.Results) != 1 || b.Results[0].Text == "" {
		t.Fatalf("unexpected batch: %+v", b.Results)
	}
	if _, err := parser.Parse("func {"); err == nil {
		t.Errorf("parse error not surfaced")
	}
}

// TestStatsAggregate sanity-checks the batch statistics.
func TestStatsAggregate(t *testing.T) {
	routines := corpusRoutines(t, 0.05)
	b := New(Config{Core: core.DefaultConfig(), Jobs: 4, SlowestN: 3}).Run(context.Background(), routines)
	st := b.Stats
	if st.Routines != len(routines) || st.Failed != 0 {
		t.Fatalf("stats header wrong: %+v", st)
	}
	if st.Wall <= 0 || st.CPU <= 0 {
		t.Errorf("times not recorded: wall=%v cpu=%v", st.Wall, st.CPU)
	}
	if len(st.Slowest) != 3 {
		t.Fatalf("Slowest has %d entries, want 3", len(st.Slowest))
	}
	for i := 1; i < len(st.Slowest); i++ {
		if st.Slowest[i].Duration > st.Slowest[i-1].Duration {
			t.Errorf("Slowest not sorted: %+v", st.Slowest)
		}
	}
	if !strings.Contains(st.String(), "routines") {
		t.Errorf("Stats.String: %q", st.String())
	}
}

// TestForEach covers the pool primitive: full coverage, panic recovery,
// deterministic lowest-index error, and cancellation.
func TestForEach(t *testing.T) {
	var ran atomic.Int64
	if err := ForEach(context.Background(), 100, 8, func(i int) error {
		ran.Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 100 {
		t.Fatalf("ran %d of 100", ran.Load())
	}

	err := ForEach(context.Background(), 10, 4, func(i int) error {
		if i == 7 {
			panic("kaboom")
		}
		if i >= 3 {
			return errors.New("task failed")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "task failed") {
		t.Fatalf("err = %v, want the lowest-index failure (task 3)", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := ForEach(ctx, 5, 2, func(i int) error { return nil }); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled ForEach returned %v", err)
	}

	if err := ForEach(context.Background(), 0, 4, func(i int) error { return errors.New("no") }); err != nil {
		t.Fatalf("empty ForEach returned %v", err)
	}
}
