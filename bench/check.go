package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"

	"pgvn/internal/check"
	"pgvn/internal/core"
	"pgvn/internal/driver"
	"pgvn/internal/ir"
	"pgvn/internal/parser"
	"pgvn/internal/server"
)

// sampleSize is how many routines per run the reference interpreter
// checks.
const sampleSize = 64

// driverConfig is the pipeline configuration of every workload: gvnopt's
// and gvnd's defaults (the full practical algorithm, semi-pruned SSA, no
// check tier, no cache), one worker, GVN-PRE as requested.
func driverConfig(pre bool) driver.Config {
	return driver.Config{Core: core.DefaultConfig(), Jobs: 1, PRE: pre}
}

func parseUnit(src string) ([]*ir.Routine, error) {
	routines, err := parser.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	return routines, nil
}

// textInstrs counts the instructions in printed IR: one per indented
// line.
func textInstrs(text string) int { return strings.Count(text, "\n  ") }

// outputStats sums what the program produced for its inputs.
type outputStats struct {
	routines, instrs, consts int
}

// report sets the output-quality metrics: generated code size and
// analysis strength (values proven constant, the paper's Figures 10–12
// measure), both per routine.
func (o outputStats) report(r *run) {
	n := float64(max(o.routines, 1))
	r.set("out_instrs_per_routine", float64(o.instrs)/n, "instrs/routine")
	r.set("constants_found_per_routine", float64(o.consts)/n, "values/routine")
}

func digest(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// sampleItem is one routine the correctness gate re-runs: the routine as
// parsed and the optimized text the program produced for it.
type sampleItem struct {
	orig *ir.Routine
	want string
	pre  bool
}

// sampleIndices picks min(n, sampleSize) of [0, n) by seed.
func sampleIndices(seed int64, n int) []int {
	return rand.New(rand.NewSource(seedFor(seed, -3))).Perm(n)[:min(n, sampleSize)]
}

// checkSample re-runs each item through the untraced replica. The
// replica's text must equal the program's, and check.Behavior must find
// the optimized routine observationally equivalent to the original under
// the independent reference interpreter (internal/interp).
func checkSample(r *run, items []sampleItem) {
	for _, it := range items {
		r.attempted++
		work, text, err := replica(nil, nil, it.orig, driverConfig(it.pre))
		if err != nil {
			r.fail("sample: %v", err)
			continue
		}
		if text != it.want {
			r.fail("sample %s: replica text differs from the program's", it.orig.Name)
			continue
		}
		if vs := check.Behavior(it.orig, work); len(vs) > 0 {
			r.fail("sample %s: %s", it.orig.Name, vs[0])
		}
	}
}

// verifyBodies checks the response each unit received: a gvnd-v1 body
// whose text is byte-identical to driver.Run's on the same source and
// configuration. It returns the output totals and the sample items
// drawn from the units' routines, and sets output_sha256 over the bodies
// in order.
func verifyBodies(ctx context.Context, r *run, units []*unit, bodies [][]byte) (outputStats, []sampleItem) {
	total := 0
	for _, u := range units {
		total += u.routines
	}
	picked := map[int]bool{}
	for _, i := range sampleIndices(r.opts.seed, total) {
		picked[i] = true
	}
	var out outputStats
	var items []sampleItem
	next := 0 // global index of the unit's first routine
	for ui, u := range units {
		first := next
		next += u.routines
		r.attempted++
		var resp server.OptimizeResponse
		if err := json.Unmarshal(bodies[ui], &resp); err != nil || resp.Schema != server.ResponseSchema {
			r.fail("unit %d: malformed response body", ui)
			continue
		}
		routines, err := parseUnit(u.src)
		if err != nil {
			r.fail("unit %d: %v", ui, err)
			continue
		}
		cfg := driverConfig(u.pre)
		cfg.Jobs = 0 // every core: the output does not depend on it
		b := driver.New(cfg).Run(ctx, routines)
		if err := b.Err(); err != nil {
			r.fail("unit %d: driver: %v", ui, err)
			continue
		}
		if resp.Text != b.Text() {
			r.fail("unit %d: response text differs from driver.Run", ui)
			continue
		}
		out.routines += len(resp.Routines)
		out.instrs += textInstrs(resp.Text)
		for _, rs := range resp.Routines {
			out.consts += rs.ConstantValues
		}
		for j, rt := range routines {
			if picked[first+j] {
				items = append(items, sampleItem{orig: rt, want: b.Results[j].Text, pre: u.pre})
			}
		}
	}
	r.digest = digest(bodies...)
	return out, items
}
