package main

import (
	"context"
	"encoding/json"
	"os"
	"slices"
	"sort"
	"testing"
)

// TestWorkloadsSmoke runs every workload briefly on small inputs, untraced
// and traced, with the correctness gate on: every check must pass, and
// the result line must carry exactly the metrics BENCHMARK.json declares
// for the mode.
func TestWorkloadsSmoke(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []specMetric `json:"end_to_end"`
		PerLayer []specMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(ms []specMetric) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name)
		}
		sort.Strings(out)
		return out
	}
	t.Setenv("TMPDIR", t.TempDir())
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			o := options{workload: w.name, seed: 3, seconds: 0.4, trace: trace, scale: 0.05}
			r, err := runWorkload(context.Background(), o)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w.name, trace, err)
			}
			res := r.result()
			if !res.Correct || res.Attempted < 1 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d failures %q",
					w.name, trace, res.Correct, res.Attempted, r.failures)
			}
			var got []string
			for name := range res.Metrics {
				got = append(got, name)
			}
			sort.Strings(got)
			want := names(spec.EndToEnd)
			if trace {
				want = names(spec.PerLayer)
			}
			if !slices.Equal(got, want) {
				t.Errorf("%s trace=%t: metrics\n got %q\nwant %q", w.name, trace, got, want)
			}
			if len(r.digest) != 64 {
				t.Errorf("%s trace=%t: output_sha256 %q", w.name, trace, r.digest)
			}
		}
	}
}

// TestQuartiles pins quartiles to Python's statistics.quantiles(n=4), the
// form the spread rule is stated in.
func TestQuartiles(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{1, 2, 4})
	if q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles(1,2,4) = %v %v %v, want 1 2 4", q1, q2, q3)
	}
}
