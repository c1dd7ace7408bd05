// Package harness regenerates the paper's evaluation artifacts — Table 1
// (optimistic vs balanced vs pessimistic times), Table 2 (sparse vs dense
// vs analyses-disabled times), Figures 10–12 (per-routine strength
// improvement distributions) and the §4/§5 work statistics — over the
// synthetic SPEC-shaped corpus of package workload.
package harness

import (
	"context"
	"fmt"
	"runtime"
	rtrace "runtime/trace"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	cfg2 "pgvn/internal/cfg"
	"pgvn/internal/check"
	"pgvn/internal/core"
	"pgvn/internal/dom"
	"pgvn/internal/driver"
	"pgvn/internal/ir"
	"pgvn/internal/obs"
	"pgvn/internal/opt"
	"pgvn/internal/ssa"
	"pgvn/internal/workload"
)

// Concurrency: measurements fan out over package driver's worker pool.
// Timing sweeps measure inside each worker and aggregate per-routine
// durations in input order, so the reported sums are schedule-independent;
// strength measurements go through driver.Run, whose results are
// reassembled by input index. Both are therefore deterministic at any
// worker count (wall-clock noise aside).

// jobs is the worker pool size used by every measurement; 0 or 1 means
// sequential (the historical behavior and the test default).
var jobs atomic.Int32

// SetJobs sets the worker pool size for sweeps, figures and statistics
// (n <= 0 selects GOMAXPROCS). Timing tables measured with several
// workers on a loaded machine carry more scheduler noise; per-routine
// minimum-of-reps still suppresses most of it.
func SetJobs(n int) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	jobs.Store(int32(n))
}

// jobsNow returns the effective pool size.
func jobsNow() int {
	if j := jobs.Load(); j > 0 {
		return int(j)
	}
	return 1
}

// checkLevel is the verification tier strength and statistics
// measurements run with (see SetCheck).
var checkLevel atomic.Int32

// SetCheck selects the verification tier (internal/check) for the
// strength measurements and work statistics, which go through the batch
// driver. Timing sweeps are never checked: a timing measured with the
// verifier inside it would not be the algorithm's time. Use the root
// BenchmarkDriverCheck* benchmarks to measure the checker's own
// overhead.
func SetCheck(l check.Level) { checkLevel.Store(int32(l)) }

// checkNow returns the effective verification tier.
func checkNow() check.Level { return check.Level(checkLevel.Load()) }

// analysisCache, when enabled, memoizes analysis-only results across
// figures and statistics. Within one `gvnbench -all` run the default
// configuration is analyzed four times over the same corpus (Figures
// 10–12 and the work statistics); the cache collapses those to one.
// Timing sweeps never consult it — cached timings would be meaningless.
var analysisCache atomic.Pointer[driver.Cache]

// SetAnalysisCache enables or disables the shared analysis cache.
func SetAnalysisCache(on bool) {
	if on {
		analysisCache.Store(driver.NewCache())
	} else {
		analysisCache.Store(nil)
	}
}

// AnalysisCacheStats reports the shared cache's lifetime counters; ok is
// false when the cache is disabled.
func AnalysisCacheStats() (hits, misses uint64, entries int, ok bool) {
	c := analysisCache.Load()
	if c == nil {
		return 0, 0, 0, false
	}
	hits, misses, entries = c.Stats()
	return hits, misses, entries, true
}

// metricsReg, when set, absorbs driver statistics from strength
// measurements plus per-benchmark sweep timings (see SetMetrics).
var metricsReg atomic.Pointer[obs.Registry]

// SetMetrics routes the harness's driver batches and sweep timings into
// the registry (nil disables). Timing sweeps record their aggregate into
// harness.sweep_* histograms from outside the measured region, so the
// numbers themselves are unaffected.
func SetMetrics(m *obs.Registry) { metricsReg.Store(m) }

// metricsNow returns the effective registry (possibly nil).
func metricsNow() *obs.Registry { return metricsReg.Load() }

// preEnabled selects whether the timed pipeline and the strength
// measurements run the GVN-PRE pass (see SetPRE).
var preEnabled atomic.Bool

// SetPRE enables the GVN-PRE pass inside the measured pipeline and the
// strength measurements' driver batches. Unlike checking or tracing, PRE
// is part of the optimizer itself, so it belongs inside the timed
// region — BenchmarkDriverPRE guards its overhead.
func SetPRE(on bool) { preEnabled.Store(on) }

// preNow returns the effective PRE toggle.
func preNow() bool { return preEnabled.Load() }

// traceCol, when set, hands per-routine fixpoint tracers to the strength
// measurements' driver batches (see SetTrace). Timing sweeps are never
// traced: a timing measured with the tracer inside it would not be the
// algorithm's time.
var traceCol atomic.Pointer[obs.Collector]

// SetTrace routes the harness's driver batches through the collector
// (nil disables).
func SetTrace(c *obs.Collector) { traceCol.Store(c) }

// traceNow returns the effective collector (possibly nil).
func traceNow() *obs.Collector { return traceCol.Load() }

// pipeline runs the full "HLO" pipeline on one routine and reports the
// total time and the GVN-only time.
func pipeline(r *ir.Routine, cfg core.Config) (total, gvn time.Duration, res *core.Result, err error) {
	ctx := context.Background()
	start := time.Now()
	reg := rtrace.StartRegion(ctx, "pgvn/ssa")
	work, err := ssa.BuildFrom(r, ssa.SemiPruned)
	reg.End()
	if err != nil {
		return 0, 0, nil, err
	}
	// The CFG analyses are HLO infrastructure in the paper's setting:
	// build them inside the HLO time but outside the GVN time.
	reg = rtrace.StartRegion(ctx, "pgvn/cfg")
	pre := &core.Prebuilt{
		Order: cfg2.ReversePostOrder(work),
		Dom:   dom.New(work),
		Post:  dom.NewPost(work),
	}
	reg.End()
	gvnStart := time.Now()
	reg = rtrace.StartRegion(ctx, "pgvn/gvn")
	res, err = core.RunPrebuilt(work, cfg, pre)
	reg.End()
	if err != nil {
		return 0, 0, nil, err
	}
	gvn = time.Since(gvnStart)
	reg = rtrace.StartRegion(ctx, "pgvn/opt")
	_, err = opt.ApplyWith(res, opt.Options{PRE: preNow()})
	reg.End()
	if err != nil {
		return 0, 0, nil, err
	}
	total = time.Since(start)
	return total, gvn, res, nil
}

// flatten lists a corpus's routines in corpus order.
func flatten(corpus []workload.Benchmark) []*ir.Routine {
	var out []*ir.Routine
	for _, b := range corpus {
		out = append(out, b.Routines...)
	}
	return out
}

// analyzeCorpus runs the analysis-only pipeline over the routines on the
// driver's worker pool (with the shared cache, when enabled) and returns
// per-routine reports in input order.
func analyzeCorpus(routines []*ir.Routine, cfg core.Config) ([]driver.Report, error) {
	d := driver.New(driver.Config{
		Core:        cfg,
		Jobs:        jobsNow(),
		Cache:       analysisCache.Load(),
		AnalyzeOnly: true,
		Check:       checkNow(),
		Metrics:     metricsNow(),
		Trace:       traceNow(),
	})
	batch := d.Run(context.Background(), routines)
	if err := batch.Err(); err != nil {
		return nil, err
	}
	reports := make([]driver.Report, len(batch.Results))
	for i := range batch.Results {
		reports[i] = batch.Results[i].Report
	}
	return reports, nil
}

// Table1Row is one benchmark's row of the paper's Table 1.
type Table1Row struct {
	Benchmark                string
	HLOOpt, GVNOpt           time.Duration
	HLOBal, GVNBal           time.Duration
	HLOPes, GVNPes           time.Duration
	PaperGVNOptMillis        int // the paper's column B for context
	RoutineCount, ValueCount int
}

// ratio formats a/b.
func ratio(a, b time.Duration) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// timingReps is how many sweeps each configuration gets; per-benchmark
// minimums are reported, suppressing GC and scheduler noise.
const timingReps = 3

// sweep measures one configuration over a benchmark's routines, returning
// total HLO and GVN times (minimum over timingReps repetitions). Routines
// of one repetition fan out over the driver's pool; each worker measures
// its own routine, and the per-routine durations are summed in input
// order, so the aggregate is independent of the schedule.
func sweep(b workload.Benchmark, cfg core.Config) (hlo, gvn time.Duration, err error) {
	n := len(b.Routines)
	totals := make([]time.Duration, n)
	gvns := make([]time.Duration, n)
	for rep := 0; rep < timingReps; rep++ {
		err := driver.ForEach(context.Background(), n, jobsNow(), func(i int) error {
			r := b.Routines[i]
			total, gvnT, _, perr := pipeline(r, cfg)
			if perr != nil {
				return fmt.Errorf("%s/%s: %w", b.Name, r.Name, perr)
			}
			totals[i], gvns[i] = total, gvnT
			return nil
		})
		if err != nil {
			return 0, 0, err
		}
		var h, g time.Duration
		for i := 0; i < n; i++ {
			h += totals[i]
			g += gvns[i]
		}
		if rep == 0 || h < hlo {
			hlo = h
		}
		if rep == 0 || g < gvn {
			gvn = g
		}
	}
	if m := metricsNow(); m != nil {
		m.Histogram("harness.sweep_hlo_ns").Observe(int64(hlo))
		m.Histogram("harness.sweep_gvn_ns").Observe(int64(gvn))
		// One extra untimed, sequential pass measures the allocation cost
		// per routine (snapshot schema v3). The deltas are process-wide,
		// which is why this runs outside the timed region and without the
		// worker pool — concurrent allocators would pollute the numbers.
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, r := range b.Routines {
			if _, _, _, perr := pipeline(r, cfg); perr != nil {
				return 0, 0, fmt.Errorf("%s/%s: %w", b.Name, r.Name, perr)
			}
		}
		runtime.ReadMemStats(&after)
		if n > 0 {
			m.Histogram("harness.sweep_allocs_per_op").Observe(int64((after.Mallocs - before.Mallocs) / uint64(n)))
			m.Histogram("harness.sweep_bytes_per_op").Observe(int64((after.TotalAlloc - before.TotalAlloc) / uint64(n)))
		}
		m.Counter("harness.sweeps").Inc()
	}
	return hlo, gvn, nil
}

// Table1 measures the corpus under the three modes.
func Table1(corpus []workload.Benchmark) ([]Table1Row, error) {
	paper := workload.PaperGVNTimes()
	var rows []Table1Row
	for _, b := range corpus {
		row := Table1Row{Benchmark: b.Name, PaperGVNOptMillis: paper[b.Name]}
		row.RoutineCount = len(b.Routines)
		for _, r := range b.Routines {
			row.ValueCount += r.NumInstrs()
		}
		var err error
		if row.HLOOpt, row.GVNOpt, err = sweep(b, core.DefaultConfig()); err != nil {
			return nil, err
		}
		if row.HLOBal, row.GVNBal, err = sweep(b, core.BalancedConfig()); err != nil {
			return nil, err
		}
		if row.HLOPes, row.GVNPes, err = sweep(b, core.PessimisticConfig()); err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatTable1 renders Table 1 in the paper's layout: per-mode HLO and GVN
// times, GVN share of HLO, and the balanced-vs-optimistic and
// pessimistic-vs-balanced speedups.
func FormatTable1(rows []Table1Row) string {
	var sb strings.Builder
	sb.WriteString("Table 1: optimistic vs balanced vs pessimistic value numbering\n")
	fmt.Fprintf(&sb, "%-13s %10s %9s %6s %10s %9s %6s %6s %10s %9s %6s %6s\n",
		"Benchmark", "HLO(opt)", "GVN(opt)", "B/A", "HLO(bal)", "GVN(bal)", "E/D", "B/E",
		"HLO(pes)", "GVN(pes)", "I/H", "E/I")
	var sum Table1Row
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-13s %10s %9s %5.1f%% %10s %9s %5.1f%% %6.2f %10s %9s %5.1f%% %6.2f\n",
			r.Benchmark,
			fmtDur(r.HLOOpt), fmtDur(r.GVNOpt), 100*ratio(r.GVNOpt, r.HLOOpt),
			fmtDur(r.HLOBal), fmtDur(r.GVNBal), 100*ratio(r.GVNBal, r.HLOBal),
			ratio(r.GVNOpt, r.GVNBal),
			fmtDur(r.HLOPes), fmtDur(r.GVNPes), 100*ratio(r.GVNPes, r.HLOPes),
			ratio(r.GVNBal, r.GVNPes))
		sum.HLOOpt += r.HLOOpt
		sum.GVNOpt += r.GVNOpt
		sum.HLOBal += r.HLOBal
		sum.GVNBal += r.GVNBal
		sum.HLOPes += r.HLOPes
		sum.GVNPes += r.GVNPes
	}
	fmt.Fprintf(&sb, "%-13s %10s %9s %5.1f%% %10s %9s %5.1f%% %6.2f %10s %9s %5.1f%% %6.2f\n",
		"All",
		fmtDur(sum.HLOOpt), fmtDur(sum.GVNOpt), 100*ratio(sum.GVNOpt, sum.HLOOpt),
		fmtDur(sum.HLOBal), fmtDur(sum.GVNBal), 100*ratio(sum.GVNBal, sum.HLOBal),
		ratio(sum.GVNOpt, sum.GVNBal),
		fmtDur(sum.HLOPes), fmtDur(sum.GVNPes), 100*ratio(sum.GVNPes, sum.HLOPes),
		ratio(sum.GVNBal, sum.GVNPes))
	sb.WriteString("paper: GVN ≤4% of HLO; balanced 1.39–1.90× faster than optimistic; balanced ≈ pessimistic\n")
	return sb.String()
}

// Table2Row is one benchmark's row of the paper's Table 2.
type Table2Row struct {
	Benchmark            string
	Dense, Sparse, Basic time.Duration
}

// Table2 measures the dense formulation (A), the sparse formulation (B)
// and the sparse formulation with reassociation/inference/φ-predication
// disabled (C).
func Table2(corpus []workload.Benchmark) ([]Table2Row, error) {
	var rows []Table2Row
	for _, b := range corpus {
		row := Table2Row{Benchmark: b.Name}
		var err error
		if _, row.Dense, err = sweep(b, core.DenseConfig()); err != nil {
			return nil, err
		}
		if _, row.Sparse, err = sweep(b, core.DefaultConfig()); err != nil {
			return nil, err
		}
		if _, row.Basic, err = sweep(b, core.BasicConfig()); err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatTable2 renders Table 2: dense vs sparse vs basic GVN time with the
// paper's A/B and B/C ratios.
func FormatTable2(rows []Table2Row) string {
	var sb strings.Builder
	sb.WriteString("Table 2: the cost of sparseness and of the predicate analyses (GVN time)\n")
	fmt.Fprintf(&sb, "%-13s %12s %12s %12s %7s %7s\n",
		"Benchmark", "A:Dense", "B:Sparse", "C:Basic", "A/B", "B/C")
	var sumA, sumB, sumC time.Duration
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-13s %12s %12s %12s %7.2f %7.2f\n",
			r.Benchmark, fmtDur(r.Dense), fmtDur(r.Sparse), fmtDur(r.Basic),
			ratio(r.Dense, r.Sparse), ratio(r.Sparse, r.Basic))
		sumA += r.Dense
		sumB += r.Sparse
		sumC += r.Basic
	}
	fmt.Fprintf(&sb, "%-13s %12s %12s %12s %7.2f %7.2f\n", "All",
		fmtDur(sumA), fmtDur(sumB), fmtDur(sumC), ratio(sumA, sumB), ratio(sumB, sumC))
	sb.WriteString("paper: sparse 1.23–1.57× faster than dense; basic 1.15–1.32× faster than sparse\n")
	return sb.String()
}

// FigureData is the per-routine improvement distribution of configuration
// A over configuration B: the paper's Figures 10 (vs Click), 11 (vs SCCP)
// and 12 (optimistic vs balanced). Keys are improvements, values are
// routine counts.
type FigureData struct {
	Title       string
	Unreachable map[int]int
	Constants   map[int]int
	Classes     map[int]int
	Routines    int
}

// Figure measures the improvement distribution of cfgA over cfgB.
func Figure(title string, corpus []workload.Benchmark, cfgA, cfgB core.Config) (*FigureData, error) {
	fd := &FigureData{
		Title:       title,
		Unreachable: map[int]int{},
		Constants:   map[int]int{},
		Classes:     map[int]int{},
	}
	// Counts must be taken on un-optimized routines, so both sides run
	// analysis-only batches (the driver copies; inputs stay pristine).
	routines := flatten(corpus)
	repsA, err := analyzeCorpus(routines, cfgA)
	if err != nil {
		return nil, err
	}
	repsB, err := analyzeCorpus(routines, cfgB)
	if err != nil {
		return nil, err
	}
	for i := range routines {
		ca, cb := repsA[i].Counts, repsB[i].Counts
		fd.Unreachable[ca.UnreachableValues-cb.UnreachableValues]++
		fd.Constants[ca.ConstantValues-cb.ConstantValues]++
		fd.Classes[cb.Classes-ca.Classes]++ // fewer classes is better
		fd.Routines++
	}
	return fd, nil
}

// FormatFigure renders the distribution like the paper's scatter legends:
// one line per improvement level with the number of routines.
func FormatFigure(fd *FigureData) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s (%d routines; positive = stronger)\n", fd.Title, fd.Routines)
	write := func(name string, m map[int]int) {
		keys := make([]int, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Ints(keys)
		fmt.Fprintf(&sb, "  %-20s", name)
		for _, k := range keys {
			fmt.Fprintf(&sb, " %+d:%d", k, m[k])
		}
		sb.WriteString("\n")
	}
	write("unreachable values", fd.Unreachable)
	write("constant values", fd.Constants)
	write("congruence classes", fd.Classes)
	return sb.String()
}

// WorkStats aggregates the §4/§5 statistics over a corpus.
type WorkStats struct {
	Routines     int
	Passes       int
	InstrEvals   int
	ValueVisits  int
	PredVisits   int
	PhiVisits    int
	MaxPasses    int
	TotalValues  int
	TotalClasses int
}

// MeasureStats runs the full practical algorithm over the corpus and
// aggregates its work statistics.
func MeasureStats(corpus []workload.Benchmark) (*WorkStats, error) {
	reports, err := analyzeCorpus(flatten(corpus), core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	ws := &WorkStats{}
	for _, rep := range reports {
		ws.Routines++
		ws.Passes += rep.Stats.Passes
		if rep.Stats.Passes > ws.MaxPasses {
			ws.MaxPasses = rep.Stats.Passes
		}
		ws.InstrEvals += rep.Stats.InstrEvals
		ws.ValueVisits += rep.Stats.ValueInfVisits
		ws.PredVisits += rep.Stats.PredInfVisits
		ws.PhiVisits += rep.Stats.PhiPredVisits
		ws.TotalValues += rep.Counts.Values
		ws.TotalClasses += rep.Counts.Classes
	}
	return ws, nil
}

// AvgPasses returns the average RPO passes per routine (paper: 1.98).
func (ws *WorkStats) AvgPasses() float64 {
	if ws.Routines == 0 {
		return 0
	}
	return float64(ws.Passes) / float64(ws.Routines)
}

// PerInstr returns the average blocks visited per instruction evaluation
// for value inference, predicate inference and φ-predication (paper:
// 0.91, 0.38, 0.16).
func (ws *WorkStats) PerInstr() (value, pred, phi float64) {
	if ws.InstrEvals == 0 {
		return
	}
	n := float64(ws.InstrEvals)
	return float64(ws.ValueVisits) / n, float64(ws.PredVisits) / n, float64(ws.PhiVisits) / n
}

// FormatStats renders the work statistics next to the paper's numbers.
func FormatStats(ws *WorkStats) string {
	v, p, phi := ws.PerInstr()
	var sb strings.Builder
	sb.WriteString("Work statistics (practical algorithm, full analyses)\n")
	fmt.Fprintf(&sb, "  routines analyzed            %d\n", ws.Routines)
	fmt.Fprintf(&sb, "  avg passes per routine       %.2f   (paper: 1.98)\n", ws.AvgPasses())
	fmt.Fprintf(&sb, "  max passes                   %d\n", ws.MaxPasses)
	fmt.Fprintf(&sb, "  blocks/instr value inference %.2f   (paper: 0.91)\n", v)
	fmt.Fprintf(&sb, "  blocks/instr pred inference  %.2f   (paper: 0.38)\n", p)
	fmt.Fprintf(&sb, "  blocks/instr φ-predication   %.2f   (paper: 0.16)\n", phi)
	fmt.Fprintf(&sb, "  values %d in %d classes\n", ws.TotalValues, ws.TotalClasses)
	return sb.String()
}

func fmtDur(d time.Duration) string {
	return d.Round(10 * time.Microsecond).String()
}
