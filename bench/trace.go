package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"time"

	"pgvn/internal/core"
	"pgvn/internal/driver"
	"pgvn/internal/ir"
	"pgvn/internal/obs"
	"pgvn/internal/opt"
	"pgvn/internal/ssa"
)

// pipelineLayers are the modules the traced replica opens a span for, in
// pipeline order. Their self times are the per-layer rows; whatever the
// untraced wall holds beyond their sum is the unattributed row.
var pipelineLayers = []string{"parser", "ir.clone", "ssa", "core", "opt", "ir.render"}

// span is one interval the benchmark recorded around a call into a layer.
type span struct {
	name   string
	parent int // index of the enclosing span, -1 for a root
	start  time.Time
	dur    time.Duration
	alloc  uint64 // heap bytes allocated while the span was open
}

// recorder keeps spans in memory until the run ends. A nil *recorder
// records nothing, so the untraced correctness checks share the replica.
type recorder struct {
	spans  []span
	sample []metrics.Sample
}

func newRecorder() *recorder {
	return &recorder{sample: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}}
}

func (rc *recorder) allocs() uint64 {
	metrics.Read(rc.sample)
	return rc.sample[0].Value.Uint64()
}

func (rc *recorder) begin(name string, parent int) int {
	if rc == nil {
		return -1
	}
	rc.spans = append(rc.spans, span{name: name, parent: parent, alloc: rc.allocs()})
	i := len(rc.spans) - 1
	rc.spans[i].start = time.Now()
	return i
}

func (rc *recorder) end(i int) {
	if rc == nil {
		return
	}
	s := &rc.spans[i]
	s.dur = time.Since(s.start)
	s.alloc = rc.allocs() - s.alloc
}

// records converts the spans for obs.WriteSpanChromeTrace, one lane per
// node name.
func (rc *recorder) records(node string) []obs.SpanRecord {
	trace := obs.NewTraceContext().TraceID
	out := make([]obs.SpanRecord, len(rc.spans))
	for i, s := range rc.spans {
		out[i] = obs.SpanRecord{
			TraceID:     trace,
			SpanID:      fmt.Sprintf("%016x", i+1),
			Name:        s.name,
			Node:        node,
			StartUnixNS: s.start.UnixNano(),
			DurationNS:  int64(s.dur),
		}
		if s.parent >= 0 {
			out[i].ParentID = fmt.Sprintf("%016x", s.parent+1)
		}
	}
	return out
}

// layerStats accumulates what traced runs of the replica measured: self
// time and self allocation per span name, and the counts the layers'
// result structs report.
type layerStats struct {
	self     map[string]time.Duration
	alloc    map[string]uint64
	routines int
	// Per-routine counts, summed.
	instrsParse, instrsSSA, passes, touches, evals, removed, preRemoved int
}

func newLayerStats() *layerStats {
	return &layerStats{self: map[string]time.Duration{}, alloc: map[string]uint64{}}
}

// fold adds spans by name. A span's self time is its duration minus its
// children's; the replica's children run one after another, so their sum
// is exactly the part of the parent they cover.
func (ls *layerStats) fold(spans []span) {
	childDur := make([]time.Duration, len(spans))
	childAlloc := make([]uint64, len(spans))
	for _, s := range spans {
		if s.parent >= 0 {
			childDur[s.parent] += s.dur
			childAlloc[s.parent] += s.alloc
		}
	}
	for i, s := range spans {
		ls.self[s.name] += s.dur - childDur[i]
		ls.alloc[s.name] += s.alloc - min(childAlloc[i], s.alloc)
	}
}

// layerTotal is the summed self time of the pipeline layers.
func (ls *layerStats) layerTotal() time.Duration {
	var t time.Duration
	for _, l := range pipelineLayers {
		t += ls.self[l]
	}
	return t
}

// report sets the per-routine pipeline metrics.
func (ls *layerStats) report(r *run) {
	n := float64(max(ls.routines, 1))
	for _, l := range pipelineLayers {
		r.set(l+".us_per_routine", float64(ls.self[l])/1e3/n, "us")
	}
	for _, l := range []string{"parser", "ir.clone", "ssa", "core", "opt"} {
		r.set(l+".alloc_kb_per_routine", float64(ls.alloc[l])/1024/n, "KB")
	}
	r.set("ir.instrs_after_parse", float64(ls.instrsParse)/n, "instrs")
	r.set("ir.instrs_after_ssa", float64(ls.instrsSSA)/n, "instrs")
	r.set("core.passes_per_routine", float64(ls.passes)/n, "passes")
	r.set("core.touches_per_routine", float64(ls.touches)/n, "touches")
	r.set("core.instr_evals_per_routine", float64(ls.evals)/n, "evals")
	r.set("opt.instrs_removed_per_routine", float64(ls.removed)/n, "instrs")
	r.set("opt.pre.removed_per_routine", float64(ls.preRemoved)/n, "instrs")
}

// replica repeats driver.one for one routine with Check off and no cache
// — Clone, ssa.Build, core.Run with Count and ReturnConst, opt.ApplyWith,
// String — with a span around each call. It returns the optimized
// routine and its text, which must equal the driver's. ls, when non-nil,
// receives the counts.
func replica(rc *recorder, ls *layerStats, r *ir.Routine, cfg driver.Config) (*ir.Routine, string, error) {
	top := rc.begin("driver.one", -1)
	defer rc.end(top)
	sp := rc.begin("ir.clone", top)
	work := r.Clone()
	rc.end(sp)
	sp = rc.begin("ssa", top)
	err := ssa.Build(work, cfg.Placement)
	rc.end(sp)
	if err != nil {
		return nil, "", fmt.Errorf("%s: ssa: %w", r.Name, err)
	}
	instrsSSA := work.NumInstrs()
	sp = rc.begin("core", top)
	res, err := core.Run(work, cfg.Core)
	if err == nil {
		res.Count()
		res.ReturnConst()
	}
	rc.end(sp)
	if err != nil {
		return nil, "", fmt.Errorf("%s: core: %w", r.Name, err)
	}
	sp = rc.begin("opt", top)
	st, err := opt.ApplyWith(res, opt.Options{PRE: cfg.PRE})
	rc.end(sp)
	if err != nil {
		return nil, "", fmt.Errorf("%s: opt: %w", r.Name, err)
	}
	sp = rc.begin("ir.render", top)
	text := work.String()
	rc.end(sp)
	if ls != nil {
		ls.routines++
		ls.instrsParse += r.NumInstrs()
		ls.instrsSSA += instrsSSA
		ls.passes += res.Stats.Passes
		ls.touches += res.Stats.Touches
		ls.evals += res.Stats.InstrEvals
		ls.removed += st.InstrsRemoved
		ls.preRemoved += st.PRE.Removals
	}
	return work, text, nil
}

// profileUnits runs the traced replica once over each source, parse
// included, and folds the spans into ls. Workloads whose measured loop
// does not run the whole pipeline (analyze, the serving workloads) take
// their pipeline rows from this pass over their own inputs.
func profileUnits(r *run, ls *layerStats, units []*unit) {
	freshHeap()
	rc := newRecorder()
	for _, u := range units {
		p := rc.begin("parser", -1)
		routines, err := parseUnit(u.src)
		rc.end(p)
		if err != nil {
			r.fail("%v", err)
			continue
		}
		for _, rt := range routines {
			r.attempted++
			if _, _, err := replica(rc, ls, rt, driverConfig(u.pre)); err != nil {
				r.fail("traced replica: %v", err)
			}
		}
	}
	ls.fold(rc.spans)
}

// verifyProbe times ir.Routine.Verify alone, outside the layer sum. The
// pipeline verifies each routine four times (parser, ssa.Build on entry
// and on exit, opt.ApplyWith), so four times this per-call cost
// approximates what moving verification out of the hot path can save.
func verifyProbe(r *run, routines []*ir.Routine) {
	r.attempted += len(routines)
	freshHeap()
	t0 := time.Now()
	for _, rt := range routines {
		if err := rt.Verify(); err != nil {
			r.fail("verify probe: %s: %v", rt.Name, err)
		}
	}
	r.set("ir.verify.us_per_call", float64(time.Since(t0))/1e3/float64(max(len(routines), 1)), "us")
}

// attribution sets trace.unattributed_frac, the share of the untraced
// operation wall that the traced layer rows do not cover, and
// trace.overhead_frac, the traced wall over the untraced one minus one.
// All three arguments are means per operation.
func attribution(r *run, untraced, traced, layers time.Duration) {
	r.set("trace.unattributed_frac", float64(untraced-layers)/float64(untraced), "frac")
	r.set("trace.overhead_frac", float64(traced)/float64(untraced)-1, "frac")
}

// writeTrace writes spans as Chrome trace_event JSON to
// <dir>/<workload>.trace.json when -trace-dir is set.
func writeTrace(r *run, recs []obs.SpanRecord) error {
	if r.opts.traceDir == "" {
		return nil
	}
	if err := os.MkdirAll(r.opts.traceDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(r.opts.traceDir, r.opts.workload+".trace.json"))
	if err != nil {
		return err
	}
	if err := obs.WriteSpanChromeTrace(f, recs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
