package check

import (
	"pgvn/internal/core"
	"pgvn/internal/ir"
	"pgvn/internal/opt"
	"pgvn/internal/ssa"
)

// Analyze runs every post-analysis check appropriate for the level on a
// core.Result and packages the findings as a stage-"gvn" *Error (nil
// when clean, or when checking is off). The fast tier validates the
// Result's internal consistency (Analysis); the full tier adds the dvnt
// second opinion (CrossCheck) and the interpreter claims validation
// (Claims).
func Analyze(res *core.Result, level Level) *Error {
	if level == Off {
		return nil
	}
	vs := Analysis(res)
	if level >= Full {
		vs = append(vs, CrossCheck(res)...)
		vs = append(vs, Claims(res)...)
	}
	return wrap(res.Routine.Name, "gvn", vs)
}

// PostOpt runs every post-transformation check appropriate for the
// level: the structural sandwich on the optimized routine, the
// independent dominance re-verification, and — at the full tier — the
// behavioural equivalence of orig and optimized on the input matrix.
// The result is a stage-"opt" *Error, nil when clean.
func PostOpt(orig, optimized *ir.Routine, level Level) *Error {
	if level == Off {
		return nil
	}
	var vs []Violation
	if e := Structural(optimized, "opt"); e != nil {
		vs = append(vs, e.Violations...)
	}
	vs = append(vs, Dominance(optimized)...)
	if level >= Full {
		vs = append(vs, Behavior(orig, optimized)...)
	}
	return wrap(optimized.Name, "opt", vs)
}

// PassSandwich re-verifies a routine between optimization passes: the
// structural invariants plus the independent use-def dominance
// re-verification. The driver wires this around PRE (via
// opt.Options.Verify), where edge splitting and φ insertion can break
// both in ways the end-of-pipeline Verify would attribute to the wrong
// pass. The stage is "opt:<pass>" so a conviction names the culprit.
func PassSandwich(r *ir.Routine, pass string) *Error {
	var vs []Violation
	if e := Structural(r, "opt:"+pass); e != nil {
		vs = append(vs, e.Violations...)
	}
	vs = append(vs, Dominance(r)...)
	return wrap(r.Name, "opt:"+pass, vs)
}

// Pipeline runs the whole pipeline on a copy of r with checking at the
// given level between every stage: parse form → SSA construction → GVN →
// opt.Apply. It returns the first *Error (as an error), a pipeline
// failure (SSA construction, analysis or transformation), or nil when
// every stage and every check passed. r itself is never modified.
//
// This is the convenience entry the fuzz targets and corpus tests use as
// their oracle; the driver integrates the same checks stage by stage so
// violations become per-routine RoutineErrors.
func Pipeline(r *ir.Routine, cfg core.Config, placement ssa.Placement, level Level) error {
	return PipelinePRE(r, cfg, placement, level, false)
}

// PipelinePRE is Pipeline with the GVN-PRE pass switchable. With pre
// true the opt stage runs the full pipeline including PRE, sandwiched by
// PassSandwich — the oracle configuration the PRE fuzz target uses.
func PipelinePRE(r *ir.Routine, cfg core.Config, placement ssa.Placement, level Level, pre bool) error {
	if level == Off {
		return nil
	}
	if e := Structural(r, "parse"); e != nil {
		return e
	}
	work, err := ssa.BuildFrom(r, placement)
	if err != nil {
		return err
	}
	if e := Structural(work, "ssa"); e != nil {
		return e
	}
	res, err := core.Run(work, cfg)
	if err != nil {
		return err
	}
	if e := Structural(work, "gvn"); e != nil {
		return e
	}
	if e := Analyze(res, level); e != nil {
		return e
	}
	o := opt.Options{PRE: pre}
	if pre {
		o.Verify = func(pass string) error {
			if e := PassSandwich(work, pass); e != nil {
				return e
			}
			return nil
		}
	}
	if _, err := opt.ApplyWith(res, o); err != nil {
		return err
	}
	if e := PostOpt(r, work, level); e != nil {
		return e
	}
	return nil
}
