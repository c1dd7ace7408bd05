package server

import (
	"net/http"
	"strings"
	"sync"
	"testing"

	"pgvn/internal/ir"
	"pgvn/internal/workload"
)

// coldUnits builds n fresh request sources of 1–4 routines each, the
// shape of the serve-cold workload: the even ones from SPEC-shaped
// corpus routines, the odd ones from the GVN-PRE family.
func coldUnits(t *testing.T, n int) []string {
	var spec []*ir.Routine
	for _, b := range workload.Corpus(0.05) {
		spec = append(spec, b.Routines...)
	}
	pre := workload.PartialRedundancy(1).Routines
	units := make([]string, n)
	for i := range units {
		from := &spec
		if i%2 == 1 {
			from = &pre
		}
		var sb strings.Builder
		for j := 0; j < 1+i/2%4; j++ {
			if len(*from) == 0 {
				t.Fatalf("too few routines for %d units", n)
			}
			if j > 0 {
				sb.WriteString("\n")
			}
			sb.WriteString(workload.SourceText((*from)[0]))
			*from = (*from)[1:]
		}
		units[i] = sb.String()
	}
	return units
}

// TestConcurrentColdRequestsMatchSequential fires cold optimize
// requests with PRE on at one server all at once. Every request's
// driver workers borrow workspaces from one pool and recycle each
// routine's memory through them, so a workspace shared by two workers,
// or one handed on while a routine still uses it, shows up here as a
// response that differs from the same request served alone.
func TestConcurrentColdRequestsMatchSequential(t *testing.T) {
	units := coldUnits(t, 16)
	bodies := make([]string, len(units))
	want := make([]string, len(units))
	seq := New(Config{Jobs: 1, MaxConcurrent: 1})
	for i, src := range units {
		bodies[i] = reqBody(t, src, map[string]any{"pre": true})
		rec := postOptimize(t, seq.Handler(), bodies[i])
		if rec.Code != http.StatusOK {
			t.Fatalf("unit %d alone: status %d: %s", i, rec.Code, rec.Body)
		}
		want[i] = rec.Body.String()
	}

	s := New(Config{Jobs: 2})
	got := make([]string, len(units))
	var wg sync.WaitGroup
	for i := range units {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := postOptimize(t, s.Handler(), bodies[i])
			if rec.Code != http.StatusOK {
				t.Errorf("unit %d: status %d: %s", i, rec.Code, rec.Body)
			}
			got[i] = rec.Body.String()
		}()
	}
	wg.Wait()
	for i := range units {
		if got[i] != want[i] {
			t.Errorf("unit %d: concurrent response differs from the sequential one", i)
		}
	}
}
