package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// specMetric is one metric as BENCHMARK.json declares it.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// compareRuns prints the A/B verdict for two files of result lines from
// alternating runs of one workload (line k of each file is pair k). For
// every metric the spec declares and the runs report it prints each
// side's median and quartiles, the share of pairs the change won (ties
// count for neither), and a verdict:
//
//   - gain: the change won at least 9 in 10 pairs and its median beats
//     the parent's by more than the parent's interquartile range;
//   - regression: the change's median is worse than the parent's by
//     more than the metric's bound;
//   - unresolved: the parent's own spread is wider than the bound, and
//     not every run of the change beats every run of the parent;
//   - same: none of these.
func compareRuns(w io.Writer, files, specPath string) error {
	names := strings.Split(files, ",")
	if len(names) != 2 {
		return fmt.Errorf("-compare wants BASE.jsonl,HEAD.jsonl")
	}
	base, err := readResults(names[0])
	if err != nil {
		return err
	}
	head, err := readResults(names[1])
	if err != nil {
		return err
	}
	pairs := min(len(base), len(head))
	if pairs < 2 {
		return fmt.Errorf("need at least 2 pairs of runs, have %d", pairs)
	}
	b, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec struct {
		EndToEnd []specMetric `json:"end_to_end"`
		PerLayer []specMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	failed := func(rs []result) (n int) {
		for _, r := range rs[:pairs] {
			n += r.Failed
		}
		return n
	}
	fmt.Fprintf(w, "%d pairs; failed operations: base %d, head %d\n", pairs, failed(base), failed(head))
	fmt.Fprintf(w, "%-34s %-32s %-32s %6s  %s\n", "metric", "base median [q1, q3]", "head median [q1, q3]", "wins", "verdict")
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		var bv, hv []float64
		for k := 0; k < pairs; k++ {
			x, okx := base[k].Metrics[m.Name]
			y, oky := head[k].Metrics[m.Name]
			if okx && oky {
				bv = append(bv, x.Value)
				hv = append(hv, y.Value)
			}
		}
		if len(bv) < 2 {
			continue
		}
		// better(x, y): x reads better than y in the metric's direction.
		better := func(x, y float64) bool {
			if m.Better == "higher" {
				return x > y
			}
			return x < y
		}
		wins, losses := 0, 0
		for k := range bv {
			switch {
			case better(hv[k], bv[k]):
				wins++
			case better(bv[k], hv[k]):
				losses++
			}
		}
		allBetter := true
		for _, y := range hv {
			for _, x := range bv {
				allBetter = allBetter && better(y, x)
			}
		}
		bq1, bmed, bq3 := quartiles(bv)
		hq1, hmed, hq3 := quartiles(hv)
		verdict := "same"
		worse := hmed - bmed // how much worse the change's median reads
		if m.Better == "higher" {
			worse = -worse
		}
		switch {
		case 10*wins >= 9*len(bv) && -worse > bq3-bq1:
			verdict = "gain"
		case m.Bound > 0 && worse > m.Bound*math.Abs(bmed):
			verdict = "regression"
		case m.Bound > 0 && bq3-bq1 > m.Bound*math.Abs(bmed) && !allBetter:
			verdict = "unresolved"
		case m.Bound == 0:
			verdict = "-"
		}
		fmt.Fprintf(w, "%-34s %-32s %-32s %3d/%-2d  %s\n", m.Name,
			fmt.Sprintf("%.4g [%.4g, %.4g]", bmed, bq1, bq3),
			fmt.Sprintf("%.4g [%.4g, %.4g]", hmed, hq1, hq3), wins, len(bv), verdict)
	}
	return nil
}

// readResults reads the result lines of a file, skipping anything else.
func readResults(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		var r result
		if json.Unmarshal(sc.Bytes(), &r) == nil && r.Metrics != nil {
			out = append(out, r)
		}
	}
	return out, sc.Err()
}
