// Package pgvn is the top-level facade of the predicated sparse global
// value numbering library — a complete implementation of Karthik Gargi's
// "A Sparse Algorithm for Predicated Global Value Numbering" (PLDI 2002).
//
// The facade offers a source-in/source-out workflow over the textual IR:
//
//	out, report, err := pgvn.OptimizeSource(src, pgvn.Options{})
//
// Full control — IR construction, SSA placement choices, per-analysis
// toggles, congruence queries, the benchmark harness — lives in the
// internal packages; see README.md for the map.
package pgvn

import (
	"context"
	"fmt"
	"strings"

	"pgvn/internal/check"
	"pgvn/internal/core"
	"pgvn/internal/driver"
	"pgvn/internal/ir"
	"pgvn/internal/obs"
	"pgvn/internal/opt"
	"pgvn/internal/parser"
	"pgvn/internal/ssa"
)

// Options configures the facade. The zero value requests the full
// practical algorithm (optimistic, sparse, every analysis enabled).
type Options struct {
	// Mode selects optimistic (default), balanced or pessimistic value
	// numbering.
	Mode core.Mode
	// Emulate selects a published baseline instead of the full
	// algorithm: "click", "sccp" or "simpson" (see core's §2.9 presets).
	Emulate string
	// DisableReassociation, DisablePredicateInference,
	// DisableValueInference and DisablePhiPredication switch off the
	// corresponding unified analysis.
	DisableReassociation, DisablePredicateInference bool
	// DisableValueInference switches off value inference.
	DisableValueInference bool
	// DisablePhiPredication switches off φ-predication.
	DisablePhiPredication bool
	// Complete selects the complete algorithm (reachable dominator
	// tree) instead of the practical one.
	Complete bool
	// PrunedSSA uses pruned (liveness-based) φ-placement.
	PrunedSSA bool
	// PRE enables the GVN-PRE pass: partial redundancy elimination
	// driven by the value partition, inserting evaluations on
	// predecessor edges where a value is missing and merging the copies
	// with a φ (internal/opt/pre). Default off — it is the one
	// transformation that can grow the program text.
	PRE bool
	// Jobs routes OptimizeSource through the concurrent batch driver:
	// routines are optimized on up to Jobs workers (negative selects
	// GOMAXPROCS) and reassembled in input order, so the output is
	// byte-identical to the sequential path. 0 keeps the
	// single-goroutine path.
	Jobs int
	// Check selects the self-verification tier: "" or "off" (default,
	// zero overhead), "fast" (structural pass-sandwich plus
	// analysis-result validation) or "full" (fast plus an independent
	// second-opinion value numbering and bounded translation validation
	// against the reference interpreter). A violation fails the routine
	// with a structured diagnostic.
	Check string
	// Trace, when non-nil, collects one fixpoint event stream per
	// routine (internal/obs): TOUCHED pushes, class merges, predicate
	// and value inferences, reachability flips, opt rewrites. The
	// streams are keyed by routine index, so the export is
	// deterministic at any Jobs. Setting Trace routes OptimizeSource
	// through the batch driver even when Jobs is 0.
	Trace *obs.Collector
	// Metrics, when non-nil, absorbs the analysis, transformation and
	// driver statistics (internal/obs.Registry). Like Trace it routes
	// the run through the batch driver.
	Metrics *obs.Registry
}

// observed reports whether an observability sink forces the driver path.
func (o Options) observed() bool { return o.Trace != nil || o.Metrics != nil }

func (o Options) config() (core.Config, error) {
	var cfg core.Config
	switch o.Emulate {
	case "":
		cfg = core.DefaultConfig()
	case "click":
		cfg = core.ClickConfig()
	case "sccp":
		cfg = core.SCCPConfig()
	case "simpson":
		cfg = core.SimpsonConfig()
	default:
		return cfg, fmt.Errorf("pgvn: unknown emulation %q", o.Emulate)
	}
	cfg.Mode = o.Mode
	if o.DisableReassociation {
		cfg.Reassociate = false
	}
	if o.DisablePredicateInference {
		cfg.PredicateInference = false
	}
	if o.DisableValueInference {
		cfg.ValueInference = false
	}
	if o.DisablePhiPredication {
		cfg.PhiPredication = false
	}
	cfg.Complete = o.Complete
	return cfg, nil
}

func (o Options) placement() ssa.Placement {
	if o.PrunedSSA {
		return ssa.Pruned
	}
	return ssa.SemiPruned
}

// Report summarizes what the analysis found and the transformations
// applied, per routine.
type Report struct {
	// Routine is the routine name.
	Routine string
	// Passes is the number of RPO passes the analysis took.
	Passes int
	// Values, UnreachableValues, ConstantValues and Classes are the
	// strength metrics of the analysis (before transformation).
	Values, UnreachableValues, ConstantValues, Classes int
	// BlocksRemoved through InstrsRemoved mirror opt.Stats.
	BlocksRemoved, EdgesRemoved         int
	ConstantsPropagated                 int
	RedundanciesReplaced, InstrsRemoved int
	// PREInsertions, PRERemoved and PREEdgeSplits mirror the GVN-PRE
	// pass statistics (zero unless Options.PRE).
	PREInsertions, PRERemoved, PREEdgeSplits int
	// AlwaysReturns holds the constant the routine is proven to always
	// return, when Const is true.
	AlwaysReturns int64
	// Const reports whether AlwaysReturns is meaningful.
	Const bool
}

// OptimizeSource parses one or more routines in the textual IR language,
// runs the analysis and every transformation, and returns the optimized
// program text plus one Report per routine.
func OptimizeSource(src string, o Options) (string, []Report, error) {
	cfg, err := o.config()
	if err != nil {
		return "", nil, err
	}
	lvl, err := check.ParseLevel(o.Check)
	if err != nil {
		return "", nil, fmt.Errorf("pgvn: %w", err)
	}
	routines, err := parser.Parse(src)
	if err != nil {
		return "", nil, err
	}
	if o.Jobs != 0 || lvl != check.Off || o.observed() {
		// Checked and observed runs share the driver's stage-by-stage
		// wiring (verification, per-routine tracers, metrics); with
		// Jobs == 0 the pool is pinned to one worker, so the output is
		// still byte-identical to the sequential path.
		return optimizeParallel(routines, cfg, o, lvl)
	}
	var out strings.Builder
	var reports []Report
	for _, r := range routines {
		rep, err := optimizeRoutine(r, cfg, o.placement(), o.PRE)
		if err != nil {
			return "", nil, err
		}
		reports = append(reports, rep)
		out.WriteString(r.String())
	}
	return out.String(), reports, nil
}

// optimizeParallel runs the batch driver over the routines. The driver
// reassembles results in input order, so this path is byte-identical to
// the sequential one.
func optimizeParallel(routines []*ir.Routine, cfg core.Config, o Options, lvl check.Level) (string, []Report, error) {
	jobs := o.Jobs
	switch {
	case jobs < 0:
		jobs = 0 // driver interprets <= 0 as GOMAXPROCS
	case jobs == 0:
		jobs = 1 // checked sequential run: keep the single-goroutine behavior
	}
	d := driver.New(driver.Config{
		Core:      cfg,
		Placement: o.placement(),
		Jobs:      jobs,
		PRE:       o.PRE,
		Check:     lvl,
		Trace:     o.Trace,
		Metrics:   o.Metrics,
	})
	batch := d.Run(context.Background(), routines)
	if err := batch.Err(); err != nil {
		return "", nil, err
	}
	reports := make([]Report, len(batch.Results))
	for i, rr := range batch.Results {
		reports[i] = Report{
			Routine:              rr.Name,
			Passes:               rr.Report.Stats.Passes,
			Values:               rr.Report.Counts.Values,
			UnreachableValues:    rr.Report.Counts.UnreachableValues,
			ConstantValues:       rr.Report.Counts.ConstantValues,
			Classes:              rr.Report.Counts.Classes,
			BlocksRemoved:        rr.Report.Opt.BlocksRemoved,
			EdgesRemoved:         rr.Report.Opt.EdgesRemoved,
			ConstantsPropagated:  rr.Report.Opt.ConstantsPropagated,
			RedundanciesReplaced: rr.Report.Opt.RedundanciesReplaced,
			InstrsRemoved:        rr.Report.Opt.InstrsRemoved,
			PREInsertions:        rr.Report.Opt.PRE.Insertions,
			PRERemoved:           rr.Report.Opt.PRE.Removals,
			PREEdgeSplits:        rr.Report.Opt.PRE.EdgeSplits,
			AlwaysReturns:        rr.Report.AlwaysReturns,
			Const:                rr.Report.Const,
		}
	}
	return batch.Text(), reports, nil
}

// AnalyzeSource runs the analysis without transforming, returning one
// Report per routine (the transformation counters stay zero).
func AnalyzeSource(src string, o Options) ([]Report, error) {
	cfg, err := o.config()
	if err != nil {
		return nil, err
	}
	lvl, err := check.ParseLevel(o.Check)
	if err != nil {
		return nil, fmt.Errorf("pgvn: %w", err)
	}
	routines, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	var reports []Report
	for idx, r := range routines {
		if err := ssa.Build(r, o.placement()); err != nil {
			return nil, err
		}
		if lvl != check.Off {
			if e := check.Structural(r, "ssa"); e != nil {
				return nil, e
			}
		}
		// Each routine gets its own tracer so the export stays keyed by
		// input index, matching the driver path.
		rcfg := cfg
		rcfg.Trace = o.Trace.Tracer(idx, r.Name)
		res, err := core.Run(r, rcfg)
		if err != nil {
			return nil, err
		}
		if m := o.Metrics; m != nil {
			m.Counter("core.passes").Add(int64(res.Stats.Passes))
			m.Counter("core.instr_evals").Add(int64(res.Stats.InstrEvals))
			m.Counter("core.touches").Add(int64(res.Stats.Touches))
		}
		if e := check.Analyze(res, lvl); e != nil {
			return nil, e
		}
		reports = append(reports, reportOf(analysisOf(res), opt.Stats{}))
	}
	return reports, nil
}

// optimizeRoutine runs the pipeline on r in place, in one workspace
// borrowed for the call, as a driver worker would.
func optimizeRoutine(r *ir.Routine, cfg core.Config, placement ssa.Placement, pre bool) (Report, error) {
	ws := core.GetWorkspace()
	defer core.PutWorkspace(ws)
	if err := ssa.BuildIn(ws.SSA(), r, placement); err != nil {
		return Report{}, err
	}
	res, err := core.RunIn(ws, r, cfg)
	if err != nil {
		return Report{}, err
	}
	// Counts and ReturnConst read the live routine, so the analysis half
	// of the report is snapshotted before opt.Apply rewrites it.
	snap := analysisOf(res)
	st, err := opt.ApplyWith(res, opt.Options{PRE: pre})
	if err != nil {
		return Report{}, err
	}
	res.Release()
	return reportOf(snap, st), nil
}

// analysisSnapshot is the pre-transformation half of a Report.
type analysisSnapshot struct {
	routine string
	passes  int
	counts  core.Counts
	ret     int64
	isConst bool
}

func analysisOf(res *core.Result) analysisSnapshot {
	s := analysisSnapshot{
		routine: res.Routine.Name,
		passes:  res.Stats.Passes,
		counts:  res.Count(),
	}
	s.ret, s.isConst = res.ReturnConst()
	return s
}

func reportOf(s analysisSnapshot, st opt.Stats) Report {
	return Report{
		Routine:              s.routine,
		Passes:               s.passes,
		Values:               s.counts.Values,
		UnreachableValues:    s.counts.UnreachableValues,
		ConstantValues:       s.counts.ConstantValues,
		Classes:              s.counts.Classes,
		BlocksRemoved:        st.BlocksRemoved,
		EdgesRemoved:         st.EdgesRemoved,
		ConstantsPropagated:  st.ConstantsPropagated,
		RedundanciesReplaced: st.RedundanciesReplaced,
		InstrsRemoved:        st.InstrsRemoved,
		PREInsertions:        st.PRE.Insertions,
		PRERemoved:           st.PRE.Removals,
		PREEdgeSplits:        st.PRE.EdgeSplits,
		AlwaysReturns:        s.ret,
		Const:                s.isConst,
	}
}
