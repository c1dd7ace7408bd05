package main

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"pgvn/internal/check"
	"pgvn/internal/core"
	"pgvn/internal/driver"
	"pgvn/internal/ir"
	"pgvn/internal/parser"
	"pgvn/internal/ssa"
)

// closedLoopProcs is GOMAXPROCS for the closed-loop workloads. Their one
// client compiles on one worker, and with one P the collector's work
// lands on the measured core too, so allocation savings show in
// routines_per_s. With two, the runtime's background mark worker on the
// other vCPU made throughput follow that vCPU's contention on a shared
// host: the spread across runs more than doubled.
const closedLoopProcs = 1

// setupRuns is how many times a run sets its workload up. setup_s is the
// median, so work moved into set-up shows without one slow repetition
// deciding the number.
const setupRuns = 5

// setup runs fn setupRuns times (once when traced: a traced run does not
// report setup_s) and sets setup_s to the median duration. Each
// repetition but the last is torn down by the cleanup fn returned, and
// its garbage collected, so peak_rss_mb sees one set-up, not five; the
// last one's cleanup is returned to the caller.
func setup(r *run, fn func() (cleanup func(), err error)) (func(), error) {
	n := setupRuns
	if r.opts.trace {
		n = 1
	}
	var times []float64
	cleanup := func() {}
	for i := 0; i < n; i++ {
		cleanup()
		freshHeap()
		t0 := time.Now()
		c, err := fn()
		times = append(times, time.Since(t0).Seconds())
		if err != nil {
			return nil, err
		}
		cleanup = func() {}
		if c != nil {
			cleanup = c
		}
	}
	if !r.opts.trace {
		_, med, _ := quartiles(times)
		r.set("setup_s", med, "s")
	}
	return cleanup, nil
}

// window is the measured time of one run.
func window(r *run) time.Duration { return time.Duration(r.opts.seconds * float64(time.Second)) }

// runBatch is the gvnopt/library path: a closed loop with one client that
// parses the whole SPEC-shaped unit and runs it through driver.Run on one
// worker, PRE off, no cache.
func runBatch(ctx context.Context, r *run) error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(closedLoopProcs))
	var src string
	if _, err := setup(r, func() (func(), error) {
		src = specUnit(r.opts.seed, r.opts.scale)
		return nil, nil
	}); err != nil {
		return err
	}
	cfg := driverConfig(false)
	// One untimed batch warms up and fixes the output every later batch
	// must reproduce byte for byte.
	routines, err := parseUnit(src)
	if err != nil {
		return err
	}
	first := driver.New(cfg).Run(ctx, routines)
	if err := first.Err(); err != nil {
		return err
	}
	want := first.Text()
	r.digest = digest([]byte(want))
	out := outputStats{routines: len(routines), instrs: textInstrs(want)}
	var items []sampleItem
	for _, rr := range first.Results {
		out.consts += rr.Report.Counts.ConstantValues
	}
	for _, i := range sampleIndices(r.opts.seed, len(routines)) {
		items = append(items, sampleItem{orig: routines[i], want: first.Results[i].Text})
	}
	if r.opts.trace {
		traceBatch(ctx, r, src, cfg, want)
	} else {
		out.report(r)
		var lat []float64
		var busy time.Duration
		batches := 0
		for start := time.Now(); time.Since(start) < window(r); batches++ {
			freshHeap()
			t0 := time.Now()
			b, err := batchOnce(ctx, src, cfg)
			busy += time.Since(t0)
			if err != nil {
				r.attempted++
				r.fail("%v", err)
				continue
			}
			r.attempted += len(b.Results)
			for _, rr := range b.Results {
				if rr.Err != nil {
					r.fail("%v", rr.Err)
				}
				lat = append(lat, ms(rr.Duration))
			}
			if b.Text() != want {
				r.fail("batch %d: output differs from the first batch", batches)
			}
		}
		r.set("routines_per_s", float64(len(lat))/busy.Seconds(), "routines/s")
		r.set("latency_p50_ms", percentile(lat, 0.50), "ms")
		r.set("latency_p90_ms", percentile(lat, 0.90), "ms")
		r.note("latency_p99_ms", "%.4f (%d samples)", percentile(lat, 0.99), len(lat))
		r.note("samples", "%d batches, %d routine latencies", batches, len(lat))
		r.set("peak_rss_mb", peakRSSMB(), "MB")
	}
	checkSample(r, items)
	return nil
}

// batchOnce is one batch as a library user runs it: parse the unit, then
// driver.Run.
func batchOnce(ctx context.Context, src string, cfg driver.Config) (*driver.Batch, error) {
	routines, err := parseUnit(src)
	if err != nil {
		return nil, err
	}
	return driver.New(cfg).Run(ctx, routines), nil
}

// traceBatch alternates untraced batches with traced replicas of the same
// batch, so drift reaches both halves alike. Every replica must print
// exactly the driver's text.
func traceBatch(ctx context.Context, r *run, src string, cfg driver.Config, want string) {
	ls := newLayerStats()
	rc := newRecorder()
	var untraced, traced []float64
	var use runtimeUse
	for start := time.Now(); time.Since(start) < window(r); {
		freshHeap()
		s0 := readRuntime()
		b, err := batchOnce(ctx, src, cfg)
		s1 := readRuntime()
		use.add(s0, s1)
		untraced = append(untraced, float64(s1.at.Sub(s0.at)))
		r.attempted++
		if err != nil || b.Err() != nil || b.Text() != want {
			r.fail("untraced batch failed or differs from the first batch")
		}

		freshHeap()
		rc.spans = rc.spans[:0]
		t0 := time.Now()
		sp := rc.begin("parser", -1)
		routines, err := parser.Parse(src)
		rc.end(sp)
		texts := make([]string, len(routines))
		for i, rt := range routines {
			if _, texts[i], err = replica(rc, ls, rt, cfg); err != nil {
				r.fail("traced replica: %v", err)
			}
		}
		traced = append(traced, float64(time.Since(t0)))
		ls.fold(rc.spans)
		r.attempted++
		if strings.Join(texts, "") != want {
			r.fail("traced replica output differs from driver.Run")
		}
	}
	use.report(r)
	ls.report(r)
	attribution(r, time.Duration(mean(untraced)), time.Duration(mean(traced)),
		ls.layerTotal()/time.Duration(len(traced)))
	if routines, err := parseUnit(src); err == nil {
		verifyProbe(r, routines)
	}
	noServer(r)
	if err := writeTrace(r, rc.records("bench")); err != nil {
		r.fail("writing trace: %v", err)
	}
}

// runAnalyze is the paper's own measurement (Table 1, GVN column): a
// closed loop with one client that runs core.Run on every SPEC-shaped
// routine, converted to SSA once during setup.
func runAnalyze(ctx context.Context, r *run) error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(closedLoopProcs))
	var src string
	var originals, routines []*ir.Routine
	if _, err := setup(r, func() (func(), error) {
		src = specUnit(r.opts.seed, r.opts.scale)
		var err error
		if originals, err = parseUnit(src); err != nil {
			return nil, err
		}
		routines = make([]*ir.Routine, len(originals))
		for i, o := range originals {
			routines[i] = o.Clone()
			if err := ssa.Build(routines[i], ssa.SemiPruned); err != nil {
				return nil, fmt.Errorf("%s: ssa: %w", o.Name, err)
			}
		}
		return nil, nil
	}); err != nil {
		return err
	}
	coreCfg := core.DefaultConfig()
	// One untimed pass warms up and fixes each routine's work record,
	// which every later pass must reproduce.
	want := make([]core.Stats, len(routines))
	var summary strings.Builder
	var out outputStats
	for i, rt := range routines {
		res, err := core.Run(rt, coreCfg)
		if err != nil {
			return fmt.Errorf("%s: core: %w", rt.Name, err)
		}
		want[i] = res.Stats
		counts := res.Count()
		k, isConst := res.ReturnConst()
		out.consts += counts.ConstantValues
		fmt.Fprintf(&summary, "%s %+v %+v %d %t\n", rt.Name, res.Stats, counts, k, isConst)
	}
	r.digest = digest([]byte(summary.String()))
	pass := func(rc *recorder, lat *[]float64) {
		for i, rt := range routines {
			sp := rc.begin("core", -1)
			t0 := time.Now()
			res, err := core.Run(rt, coreCfg)
			if lat != nil {
				*lat = append(*lat, ms(time.Since(t0)))
			}
			rc.end(sp)
			r.attempted++
			if err != nil {
				r.fail("%s: core: %v", rt.Name, err)
			} else if res.Stats != want[i] {
				r.fail("%s: work record differs from the first pass", rt.Name)
			}
		}
	}
	if r.opts.trace {
		// Untraced and traced passes alternate; the pipeline rows come
		// from one traced replica pass over the same routines.
		passes := newLayerStats()
		rc := newRecorder()
		var untraced, traced []float64
		var use runtimeUse
		for start := time.Now(); time.Since(start) < window(r); {
			freshHeap()
			s0 := readRuntime()
			pass(nil, nil)
			s1 := readRuntime()
			use.add(s0, s1)
			untraced = append(untraced, float64(s1.at.Sub(s0.at)))
			freshHeap()
			rc.spans = rc.spans[:0]
			t0 := time.Now()
			pass(rc, nil)
			traced = append(traced, float64(time.Since(t0)))
			passes.fold(rc.spans)
		}
		use.report(r)
		attribution(r, time.Duration(mean(untraced)), time.Duration(mean(traced)),
			passes.self["core"]/time.Duration(len(traced)))
		ls := newLayerStats()
		profileUnits(r, ls, []*unit{{src: src}})
		ls.report(r)
		verifyProbe(r, originals)
		noServer(r)
		if err := writeTrace(r, rc.records("bench")); err != nil {
			r.fail("writing trace: %v", err)
		}
	} else {
		var lat []float64
		var busy time.Duration
		passes := 0
		for start := time.Now(); time.Since(start) < window(r); passes++ {
			freshHeap()
			t0 := time.Now()
			pass(nil, &lat)
			busy += time.Since(t0)
		}
		r.set("routines_per_s", float64(len(lat))/busy.Seconds(), "routines/s")
		r.set("latency_p50_ms", percentile(lat, 0.50), "ms")
		r.set("latency_p90_ms", percentile(lat, 0.90), "ms")
		r.note("latency_p99_ms", "%.4f (%d samples)", percentile(lat, 0.99), len(lat))
		r.note("samples", "%d passes, %d routine latencies", passes, len(lat))
		r.set("peak_rss_mb", peakRSSMB(), "MB")
	}

	// The code the analysis yields, for its size; the sample re-checks it
	// and the analysis claims themselves against the interpreter.
	cfg := driverConfig(false)
	cfg.Jobs = 0 // every core: the output does not depend on it
	b := driver.New(cfg).Run(ctx, originals)
	if err := b.Err(); err != nil {
		return err
	}
	out.routines, out.instrs = len(originals), textInstrs(b.Text())
	if !r.opts.trace {
		out.report(r)
	}
	var items []sampleItem
	for _, i := range sampleIndices(r.opts.seed, len(originals)) {
		items = append(items, sampleItem{orig: originals[i], want: b.Results[i].Text})
		res, err := core.Run(routines[i], coreCfg)
		r.attempted++
		if err != nil {
			r.fail("%s: core: %v", routines[i].Name, err)
		} else if vs := check.Claims(res); len(vs) > 0 {
			r.fail("%s: %s", routines[i].Name, vs[0])
		}
	}
	checkSample(r, items)
	return nil
}
