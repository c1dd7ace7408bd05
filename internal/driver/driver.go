// Package driver is the batch optimization engine: it turns the
// per-routine pipeline (SSA construction → core.Run → opt.Apply) into a
// concurrent, cached, fault-isolated run over many routines.
//
//   - A bounded worker pool (Config.Jobs, default GOMAXPROCS) drains a
//     routine queue.
//   - An optional content-addressed Cache memoizes results keyed by the
//     routine's canonical text plus the configuration fingerprint.
//   - A panicking or failing routine becomes a structured RoutineError in
//     its slot; the rest of the batch completes.
//   - Context cancellation stops dispatch; routines never started are
//     marked failed with the context error.
//   - Results are reassembled in input order, so a parallel run is
//     byte-identical to a sequential one.
//   - Config.Check runs the verification layer (internal/check) between
//     every pipeline stage inside the worker; violations surface as
//     stage-"check" RoutineErrors and the level is part of the cache
//     key, so checked and unchecked results never mix.
//
// Input routines are never mutated: every worker builds the SSA form of
// its routine as a new routine (ssa.BuildFrom) and works on that. Once a
// routine's text and report are taken, the worker releases that SSA
// routine and its analysis Result, so their storage serves the next
// routine instead of the garbage collector.
package driver

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	rtrace "runtime/trace"
	"sort"
	"sync"
	"time"

	"pgvn/internal/check"
	"pgvn/internal/core"
	"pgvn/internal/ir"
	"pgvn/internal/obs"
	"pgvn/internal/opt"
	"pgvn/internal/ssa"
)

// defaultSlowest is how many routines Stats.Slowest keeps.
const defaultSlowest = 5

// Config configures a Driver.
type Config struct {
	// Core is the value numbering configuration.
	Core core.Config
	// Placement is the SSA φ-placement strategy (the zero value is
	// semi-pruned, matching the facade default).
	Placement ssa.Placement
	// Jobs is the worker pool size; <= 0 selects GOMAXPROCS.
	Jobs int
	// Cache, when non-nil, memoizes per-routine results across batches
	// and Drivers.
	Cache *Cache
	// AnalyzeOnly skips the transformations: the Report is produced but
	// the routine is not rewritten and Text stays empty.
	AnalyzeOnly bool
	// PRE enables the GVN-PRE pass (internal/opt/pre) in the
	// transformation pipeline. It changes the optimized text, so it
	// participates in the cache fingerprint. When Check is on, the pass
	// is sandwiched by check.PassSandwich — structural plus independent
	// dominance re-verification — on top of the usual PostOpt.
	PRE bool
	// SlowestN bounds Stats.Slowest; 0 means the default (5).
	SlowestN int
	// Check selects the verification tier run inside every worker:
	// structural pass-sandwich plus analysis-result validation (fast),
	// additionally the dvnt second opinion and bounded translation
	// validation (full). Violations become stage-"check" RoutineErrors;
	// the level participates in the cache key. The zero value is off.
	Check check.Level
	// Fault, when set, corrupts every routine's analysis result before
	// the checks run (see core.Fault). It exists to demonstrate and test
	// the Check tiers end to end; like Check it participates in the
	// cache key.
	Fault core.Fault
	// Metrics, when non-nil, receives batch observability: per-routine
	// and per-stage latency histograms, cache hit/miss counters,
	// per-worker busy time, queue-wait, live batch-progress gauges and
	// check verdicts. Purely observational — excluded from the cache
	// fingerprint.
	Metrics *obs.Registry
	// Trace, when non-nil, hands each routine its own fixpoint tracer
	// and collects the streams in input order (deterministic at any
	// Jobs). Core.Trace is ignored under the driver — a single tracer
	// shared by concurrent workers would race. Excluded from the cache
	// fingerprint; note a cache hit short-circuits the pipeline, so hit
	// routines carry only a cache-hit event.
	Trace *obs.Collector
}

// jobs resolves the effective worker count.
func (c Config) jobs() int {
	if c.Jobs <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return c.Jobs
}

// fingerprint canonicalizes everything that affects a routine's result,
// so the cache never conflates two configurations. core.Config is a flat
// struct of scalars apart from the tracer — which observes the analysis
// but never alters it, and is zeroed here so traced and untraced runs
// share cache entries — so %#v is a stable, total rendering.
func (c Config) fingerprint() string {
	c.Core.Trace = nil
	return fmt.Sprintf("%#v|placement=%d|analyzeonly=%t|check=%s|fault=%s|pre=%t",
		c.Core, c.Placement, c.AnalyzeOnly, c.Check, c.Fault, c.PRE)
}

// Fingerprint canonicalizes everything that affects a routine's result
// (core configuration, φ-placement, analyze-only flag, check level,
// injected fault). It is the public form of the string the in-memory
// Cache keys on, so external caches — notably the gvnd disk store —
// can address results by exactly the same identity and never conflate
// two configurations.
func (c Config) Fingerprint() string { return c.fingerprint() }

// Driver runs the optimization pipeline over batches of routines.
type Driver struct {
	cfg Config
	fp  string
	// preProcess, when set (tests only), runs on each input routine
	// before the pipeline — the fault-injection hook.
	preProcess func(*ir.Routine)
}

// New returns a Driver for the configuration.
func New(cfg Config) *Driver {
	return &Driver{cfg: cfg, fp: cfg.fingerprint()}
}

// Run optimizes every routine and returns the batch outcome. See the
// package comment for the guarantees (ordering, isolation, cancellation,
// input immutability). Run never returns an error itself: per-routine
// failures live in the results, and Batch.Err surfaces the first one.
func (d *Driver) Run(ctx context.Context, routines []*ir.Routine) *Batch {
	start := time.Now()
	b := &Batch{Results: make([]RoutineResult, len(routines))}
	jobs := d.cfg.jobs()
	if jobs > len(routines) {
		jobs = len(routines)
	}
	if jobs < 1 {
		jobs = 1
	}
	m := d.cfg.Metrics
	if m != nil {
		m.Gauge("driver.batch.total").Add(int64(len(routines)))
	}
	// The enclosing request span (nil when untraced) parents one child
	// span per routine, so /v1/trace/{id} shows where a batch spent its
	// time routine by routine.
	parent := obs.SpanFromContext(ctx)
	// enqueued[i] is stamped just before the dispatcher offers index i to
	// the (unbuffered) queue; the send completes at worker pickup, so the
	// interval is the time the routine spent waiting for a free worker.
	enqueued := make([]time.Time, len(routines))
	queue := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var busy time.Duration
			for i := range queue {
				if m != nil {
					m.Histogram("driver.queue_wait_ns").Observe(int64(time.Since(enqueued[i])))
				}
				ws := time.Now()
				b.Results[i] = d.one(parent, i, routines[i])
				busy += time.Since(ws)
			}
			if m != nil {
				m.Histogram("driver.worker_busy_ns").Observe(int64(busy))
			}
		}()
	}
	canceled := func(from int) {
		for k := from; k < len(routines); k++ {
			b.Results[k] = RoutineResult{
				Index: k,
				Name:  routines[k].Name,
				Err: &RoutineError{
					Index:   k,
					Routine: routines[k].Name,
					Stage:   "queue",
					Err:     ctx.Err(),
				},
			}
		}
	}
dispatch:
	for i := range routines {
		// The explicit Err check makes an already-canceled context
		// deterministic: select would otherwise race a ready worker
		// against the done channel.
		if ctx.Err() != nil {
			canceled(i)
			break
		}
		enqueued[i] = time.Now()
		select {
		case <-ctx.Done():
			canceled(i)
			break dispatch
		case queue <- i:
		}
	}
	close(queue)
	wg.Wait()
	d.aggregate(b, time.Since(start))
	return b
}

// one runs the pipeline for a single routine, converting a panic into a
// RoutineError so one bad routine cannot take down the batch. parent is
// the enclosing request span (nil when untraced): each routine gets a
// child span, and each computed stage a grandchild, so distributed
// traces descend to individual fixpoint runs.
func (d *Driver) one(parent *obs.Span, idx int, r *ir.Routine) (rr RoutineResult) {
	start := time.Now()
	m := d.cfg.Metrics
	tr := d.cfg.Trace.Tracer(idx, r.Name)
	sp := parent.StartChild("routine")
	sp.SetAttr("routine", r.Name)
	// Linking the span onto the tracer is what lets -explain replays and
	// JSONL event exports name the distributed trace they belong to.
	tr.SetSpan(sp.Context())
	rr = RoutineResult{Index: idx, Name: r.Name}
	defer func() {
		rr.Duration = time.Since(start)
		if p := recover(); p != nil {
			rr.Err = &RoutineError{
				Index:   idx,
				Routine: r.Name,
				Stage:   "panic",
				Err:     fmt.Errorf("panic: %v", p),
				Stack:   string(debug.Stack()),
			}
		}
		if rr.CacheHit {
			sp.SetAttr("cache", "hit")
		}
		if rr.Err != nil {
			sp.SetAttr("error", rr.Err.Stage)
		}
		sp.End()
		if m != nil {
			if rr.CacheHit {
				m.Histogram("driver.cache_lookup_ns").Observe(int64(rr.Duration))
				m.Gauge("driver.batch.cache_hits").Add(1)
			} else {
				m.Histogram("driver.routine_ns").Observe(int64(rr.Duration))
				m.Exemplars("driver.routine_ns").Observe(int64(rr.Duration), sp.TraceID())
			}
			m.Gauge("driver.batch.done").Add(1)
			if rr.Err != nil {
				m.Gauge("driver.batch.failed").Add(1)
			}
		}
	}()
	// stage brackets one pipeline step with a runtime/trace region, a
	// pair of tracer events, a child span and a latency histogram
	// observation. The stage span is returned so the opt stage can parent
	// per-pass grandchildren under it.
	stage := func(name string) (*obs.Span, func()) {
		st := time.Now()
		if tr != nil {
			tr.Emit(obs.KindStageStart, 0, -1, -1, 0, name)
		}
		// The fixpoint is the span readers hunt for; name it by what it
		// is rather than the stage mnemonic.
		spanName := name
		if name == "gvn" {
			spanName = "fixpoint"
		}
		ss := sp.StartChild(spanName)
		reg := rtrace.StartRegion(context.Background(), "pgvn/"+name)
		return ss, func() {
			reg.End()
			ss.End()
			el := time.Since(st)
			if tr != nil {
				tr.Emit(obs.KindStageEnd, 0, -1, -1, int64(el), name)
			}
			if m != nil {
				m.Histogram("driver.stage_ns." + name).Observe(int64(el))
			}
		}
	}
	var key cacheKey
	if d.cfg.Cache != nil {
		key = d.cfg.Cache.key(d.fp, r.String())
		if text, rep, ok := d.cfg.Cache.lookup(key); ok {
			rr.Text, rr.Report, rr.CacheHit = text, rep, true
			if tr != nil {
				tr.Emit(obs.KindCacheHit, 0, -1, -1, int64(time.Since(start)), "")
			}
			return rr
		}
	}
	// checked converts a check failure into a stage-"check" RoutineError;
	// the sandwich runs between every stage when Config.Check is on.
	checked := func(e *check.Error) bool {
		if e == nil {
			if m != nil {
				m.Counter("driver.check.pass").Inc()
			}
			return false
		}
		if m != nil {
			m.Counter("driver.check.fail").Inc()
		}
		rr.Err = &RoutineError{Index: idx, Routine: r.Name, Stage: "check", Err: e}
		return true
	}
	if d.preProcess != nil {
		d.preProcess(r)
	}
	if d.cfg.Check != check.Off && checked(check.Structural(r, "parse")) {
		return rr
	}
	// The SSA form is built straight from the caller's routine into a
	// routine of its own: r is never mutated and no pseudo-instruction
	// is ever copied.
	_, endSSA := stage("ssa")
	work, err := ssa.BuildFrom(r, d.cfg.Placement)
	endSSA()
	if err != nil {
		rr.Err = &RoutineError{Index: idx, Routine: r.Name, Stage: "ssa", Err: err}
		return rr
	}
	if d.cfg.Check != check.Off && checked(check.Structural(work, "ssa")) {
		return rr
	}
	// Each routine gets its own tracer: a shared Core.Trace would race
	// across workers, so the driver always overrides it.
	coreCfg := d.cfg.Core
	coreCfg.Trace = tr
	_, endGVN := stage("gvn")
	res, err := core.Run(work, coreCfg)
	endGVN()
	if err != nil {
		rr.Err = &RoutineError{Index: idx, Routine: r.Name, Stage: "gvn", Err: err}
		return rr
	}
	// Analysis-stage faults corrupt the Result before the post-analysis
	// checks; transformation-stage faults ("opt", e.g. the PRE faults)
	// inject after the optimizer has run, or its passes would repair or
	// delete the corruption before the post-transformation checks see it.
	if d.cfg.Fault != core.FaultNone && d.cfg.Fault.Stage() == "gvn" {
		if err := res.Inject(d.cfg.Fault); err != nil {
			rr.Err = &RoutineError{Index: idx, Routine: r.Name, Stage: "check",
				Err: fmt.Errorf("fault injection: %w", err)}
			return rr
		}
	}
	if d.cfg.Check != check.Off {
		// core.Run must not have mutated the routine (FaultLeaderHoist
		// deliberately does): re-verify, then validate the Result.
		if checked(check.Structural(work, "gvn")) || checked(check.Analyze(res, d.cfg.Check)) {
			return rr
		}
	}
	// Counts and ReturnConst read the live routine: take them before
	// opt.Apply rewrites it.
	rr.Report = Report{Stats: res.Stats, Counts: res.Count()}
	rr.Report.AlwaysReturns, rr.Report.Const = res.ReturnConst()
	if !d.cfg.AnalyzeOnly {
		optSpan, endOpt := stage("opt")
		oo := opt.Options{PRE: d.cfg.PRE, Span: optSpan}
		if d.cfg.PRE && d.cfg.Check != check.Off {
			oo.Verify = func(pass string) error {
				// PassSandwich returns *check.Error; convert through the
				// nil check so a clean pass yields an untyped nil error.
				if e := check.PassSandwich(work, pass); e != nil {
					return e
				}
				return nil
			}
		}
		st, err := opt.ApplyWith(res, oo)
		endOpt()
		if err != nil {
			// A sandwich violation is a check failure, not an optimizer
			// crash: route it through checked() so it counts and reports
			// like every other conviction.
			var ce *check.Error
			if errors.As(err, &ce) {
				checked(ce)
				return rr
			}
			rr.Err = &RoutineError{Index: idx, Routine: r.Name, Stage: "opt", Err: err}
			return rr
		}
		if d.cfg.Fault != core.FaultNone && d.cfg.Fault.Stage() == "opt" {
			if err := res.Inject(d.cfg.Fault); err != nil {
				rr.Err = &RoutineError{Index: idx, Routine: r.Name, Stage: "check",
					Err: fmt.Errorf("fault injection: %w", err)}
				return rr
			}
		}
		if d.cfg.Check != check.Off && checked(check.PostOpt(r, work, d.cfg.Check)) {
			return rr
		}
		rr.Report.Opt = st
		rr.Text = work.String()
	}
	if d.cfg.Cache != nil {
		d.cfg.Cache.store(key, rr.Text, rr.Report)
	}
	// Text and Report are copies: the SSA routine, the Result and the
	// expression universe behind it are dead, so their storage goes back
	// to the pools for the next routine. Failed routines skip this and
	// leave theirs to the collector.
	res.Release()
	work.Release()
	return rr
}

// aggregate fills the batch statistics and feeds the metrics registry.
func (d *Driver) aggregate(b *Batch, wall time.Duration) {
	st := &b.Stats
	st.Routines = len(b.Results)
	st.Wall = wall
	m := d.cfg.Metrics
	for i := range b.Results {
		rr := &b.Results[i]
		st.CPU += rr.Duration
		if rr.Err != nil {
			st.Failed++
			if m != nil {
				m.Counter("driver.fail." + rr.Err.Stage).Inc()
			}
		}
		if d.cfg.Cache != nil && rr.Err == nil {
			if rr.CacheHit {
				st.CacheHits++
			} else {
				st.CacheMisses++
			}
		}
		if m != nil && rr.Err == nil && !rr.CacheHit {
			m.Counter("core.passes").Add(int64(rr.Report.Stats.Passes))
			m.Counter("core.instr_evals").Add(int64(rr.Report.Stats.InstrEvals))
			m.Counter("core.touches").Add(int64(rr.Report.Stats.Touches))
			m.Counter("core.value_inf_visits").Add(int64(rr.Report.Stats.ValueInfVisits))
			m.Counter("core.pred_inf_visits").Add(int64(rr.Report.Stats.PredInfVisits))
			m.Counter("core.phi_pred_visits").Add(int64(rr.Report.Stats.PhiPredVisits))
			m.Counter("opt.blocks_removed").Add(int64(rr.Report.Opt.BlocksRemoved))
			m.Counter("opt.edges_removed").Add(int64(rr.Report.Opt.EdgesRemoved))
			m.Counter("opt.constants_propagated").Add(int64(rr.Report.Opt.ConstantsPropagated))
			m.Counter("opt.redundancies_replaced").Add(int64(rr.Report.Opt.RedundanciesReplaced))
			m.Counter("opt.instrs_removed").Add(int64(rr.Report.Opt.InstrsRemoved))
			m.Counter("opt.blocks_simplified").Add(int64(rr.Report.Opt.BlocksSimplified))
			if d.cfg.PRE {
				m.Counter("opt.pre.candidates").Add(int64(rr.Report.Opt.PRE.Candidates))
				m.Counter("opt.pre.insertions").Add(int64(rr.Report.Opt.PRE.Insertions))
				m.Counter("opt.pre.removed").Add(int64(rr.Report.Opt.PRE.Removals))
				m.Counter("opt.pre.edge_splits").Add(int64(rr.Report.Opt.PRE.EdgeSplits))
				m.Counter("opt.pre.phis").Add(int64(rr.Report.Opt.PRE.Phis))
			}
		}
	}
	if m != nil {
		m.Counter("driver.routines").Add(int64(st.Routines))
		m.Counter("driver.failed").Add(int64(st.Failed))
		m.Counter("driver.cache.hits").Add(int64(st.CacheHits))
		m.Counter("driver.cache.misses").Add(int64(st.CacheMisses))
		m.Histogram("driver.batch_wall_ns").Observe(int64(wall))
	}
	n := d.cfg.SlowestN
	if n <= 0 {
		n = defaultSlowest
	}
	// A cache hit's Duration is only the lookup time — ranking it against
	// computed routines would let a warm cache erase the real hot spots.
	// Partition instead: Slowest ranks computed routines, SlowestHits
	// ranks hit lookups.
	st.Slowest = slowestOf(b.Results, n, false)
	st.SlowestHits = slowestOf(b.Results, n, true)
}

// slowestOf ranks the routines with CacheHit == hits by descending
// duration (ties by input index) and returns the top n.
func slowestOf(results []RoutineResult, n int, hits bool) []SlowRoutine {
	var order []int
	for i := range results {
		if results[i].CacheHit == hits {
			order = append(order, i)
		}
	}
	sort.Slice(order, func(x, y int) bool {
		a, c := &results[order[x]], &results[order[y]]
		if a.Duration != c.Duration {
			return a.Duration > c.Duration
		}
		return a.Index < c.Index
	})
	if n > len(order) {
		n = len(order)
	}
	var out []SlowRoutine
	for _, i := range order[:n] {
		rr := &results[i]
		out = append(out, SlowRoutine{Index: rr.Index, Name: rr.Name, Duration: rr.Duration})
	}
	return out
}

// ForEach runs fn(i) for every i in [0, n) on up to jobs concurrent
// workers (jobs <= 0 selects GOMAXPROCS), recovering panics into errors.
// Every index runs regardless of other failures — no fail-fast — so the
// returned error, the lowest-index failure, is deterministic under any
// schedule. Context cancellation stops dispatch; indices never started
// report the context error. It is the pool primitive the harness uses
// for timing sweeps, where the work function owns its measurements.
func ForEach(ctx context.Context, n, jobs int, fn func(i int) error) error {
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	if jobs > n {
		jobs = n
	}
	if jobs < 1 {
		jobs = 1
	}
	errs := make([]error, n)
	call := func(i int) (err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("task %d: panic: %v\n%s", i, p, debug.Stack())
			}
		}()
		return fn(i)
	}
	queue := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				errs[i] = call(i)
			}
		}()
	}
dispatch:
	for i := 0; i < n; i++ {
		if ctx.Err() != nil {
			for k := i; k < n; k++ {
				errs[k] = ctx.Err()
			}
			break
		}
		select {
		case <-ctx.Done():
			for k := i; k < n; k++ {
				errs[k] = ctx.Err()
			}
			break dispatch
		case queue <- i:
		}
	}
	close(queue)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
