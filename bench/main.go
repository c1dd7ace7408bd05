// Command bench is pgvn's end-to-end benchmark. It generates its inputs
// from -seed, hands the program only source text (the library workloads)
// or HTTP requests (the serving workloads), measures one workload for
// -seconds, checks every output, and prints each metric by name with its
// unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// From the repository root (run.sh builds into .bench_build):
//
//	bash bench/run.sh --workload batch --seed 1 --seconds 15 --trace 0
//
// From bench/, every workload in turn, each in a fresh child process:
//
//	go run . -seed 1
//
// -trace 0 reports the end-to-end metrics. -trace 1 runs the workload
// traced instead and reports the per-layer metrics; -trace-dir also
// writes the spans as Chrome trace_event JSON. The process exits 1 when a
// correctness check fails. See README.md for the workloads and metrics.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
	"sort"
	"strconv"
)

// workloadDef is one named set of inputs and the loop that drives them.
type workloadDef struct {
	name string
	run  func(context.Context, *run) error
}

// workloads are the benchmark's workloads in run order.
var workloads = []workloadDef{
	{"batch", runBatch},
	{"analyze", runAnalyze},
	{"serve-warm", runServeWarm},
	{"serve-cold", runServeCold},
}

// options configure one workload run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceDir string
	// scale sizes the inputs: 1 is the benchmark; the smoke test shrinks
	// it so every workload finishes in about a second.
	scale float64
}

// metric is one measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// note is a measurement printed in the table but not in the result line:
// sample sizes, load-generator lateness, per-tier latencies.
type note struct {
	name, value string
}

// run is one workload run in progress.
type run struct {
	opts      options
	attempted int
	failed    int
	failures  []string
	metrics   map[string]metric
	notes     []note
	digest    string // output_sha256
}

// set records a metric for the result line.
func (r *run) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// note records a table-only measurement.
func (r *run) note(name, format string, args ...any) {
	r.notes = append(r.notes, note{name, fmt.Sprintf(format, args...)})
}

// fail counts one failed operation or correctness check.
func (r *run) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *run) result() result {
	return result{
		Correct:   r.failed == 0,
		Attempted: max(r.attempted, 1),
		Failed:    r.failed,
		Metrics:   r.metrics,
	}
}

// print writes the human table, then the result line.
func (r *run) print(w io.Writer) error {
	res := r.result()
	fmt.Fprintf(w, "workload %s  seed %d  seconds %g  trace %t\n",
		r.opts.workload, r.opts.seed, r.opts.seconds, r.opts.trace)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(w, "  %-34s %14.4f %s\n", name, m.Value, m.Unit)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "  %-34s %s\n", n.name, n.value)
	}
	fmt.Fprintf(w, "  %-34s %.6f (%d/%d)\n", "error_rate",
		float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	fmt.Fprintf(w, "  %-34s %s\n", "output_sha256", r.digest)
	for _, f := range r.failures {
		fmt.Fprintf(w, "  FAIL %s\n", f)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func main() {
	os.Exit(mainErr(os.Args[1:], os.Stdout, os.Stderr))
}

func mainErr(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		o       options
		trace   int
		jsonOut string
	)
	fs.StringVar(&o.workload, "workload", "", "workload to run: batch, analyze, serve-warm or serve-cold (empty: all, each in a child process)")
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.Float64Var(&o.seconds, "seconds", 15, "measured seconds per workload")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	fs.StringVar(&o.traceDir, "trace-dir", "", "with -trace 1, write <workload>.trace.json (Chrome trace_event) here")
	fs.StringVar(&jsonOut, "json", "", "also write the result object(s) to this file")
	compare := fs.String("compare", "", "A/B mode: BASE.jsonl,HEAD.jsonl of result lines from alternating runs")
	spec := fs.String("spec", "../BENCHMARK.json", "with -compare, the benchmark definition holding each metric's direction and bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare != "" {
		if err := compareRuns(stdout, *compare, *spec); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(stderr, "bench: -trace must be 0 or 1")
		return 2
	}
	if o.seconds <= 0 {
		fmt.Fprintln(stderr, "bench: -seconds must be > 0")
		return 2
	}
	o.trace = trace == 1
	o.scale = 1
	if o.workload == "" {
		return runAll(o, jsonOut, stdout, stderr)
	}
	r, err := runWorkload(context.Background(), o)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if err := r.print(stdout); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if jsonOut != "" {
		if err := writeJSON(jsonOut, r.result()); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if r.failed > 0 {
		return 1
	}
	return 0
}

// runWorkload runs one workload in this process.
func runWorkload(ctx context.Context, o options) (*run, error) {
	i := slices.IndexFunc(workloads, func(w workloadDef) bool { return w.name == o.workload })
	if i < 0 {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	r := &run{opts: o, metrics: map[string]metric{}}
	if err := workloads[i].run(ctx, r); err != nil {
		return nil, fmt.Errorf("%s: %w", o.workload, err)
	}
	return r, nil
}

// runAll runs every workload in a fresh child process, so peak RSS and
// GC state stay per workload, and passes their output through.
func runAll(o options, jsonOut string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	trace := "0"
	if o.trace {
		trace = "1"
	}
	childArgs := []string{"-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-trace", trace, "-trace-dir", o.traceDir}
	results := map[string]json.RawMessage{}
	code := 0
	for _, w := range workloads {
		var out bytes.Buffer
		cmd := exec.Command(self, append([]string{"-workload", w.name}, childArgs...)...)
		cmd.Stdout = io.MultiWriter(stdout, &out)
		cmd.Stderr = stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			code = 1
		}
		lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
		if last := lines[len(lines)-1]; json.Valid(last) {
			results[w.name] = last
		}
	}
	if jsonOut != "" {
		if err := writeJSON(jsonOut, results); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	return code
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
