package ssa_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pgvn/internal/ir"
	"pgvn/internal/ssa"
	"pgvn/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the SSA golden files")

var placements = []struct {
	name string
	p    ssa.Placement
}{
	{"minimal", ssa.Minimal},
	{"semipruned", ssa.SemiPruned},
	{"pruned", ssa.Pruned},
}

// TestGoldenCorpusSSA pins the printed SSA form of every scale-0.05
// corpus routine under each placement: ids, names, φ order, block order
// and instruction order, plus each routine's NumInstrIDs. Run `go test -run GoldenCorpusSSA -update`
// after an intentional change to SSA construction.
func TestGoldenCorpusSSA(t *testing.T) {
	for _, pl := range placements {
		t.Run(pl.name, func(t *testing.T) {
			var sb strings.Builder
			for _, b := range workload.Corpus(0.05) {
				for _, r := range b.Routines {
					if err := ssa.Build(r, pl.p); err != nil {
						t.Fatalf("%s: %v", r.Name, err)
					}
					sb.WriteString(r.String())
					fmt.Fprintf(&sb, "# %s: NumInstrIDs %d\n", r.Name, r.NumInstrIDs())
				}
			}
			got := sb.String()
			path := filepath.Join("testdata", "corpus."+pl.name+".golden")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create)", err)
			}
			if got != string(want) {
				t.Fatalf("SSA form drifted from %s: first difference at byte %d",
					path, firstDiff(got, string(want)))
			}
		})
	}
}

func firstDiff(a, b string) int {
	n := min(len(a), len(b))
	for k := 0; k < n; k++ {
		if a[k] != b[k] {
			return k
		}
	}
	return n
}

// TestBuildFromMatchesBuild holds the copying construction to the
// in-place one on every corpus routine and placement: the same text, the
// same NumInstrIDs and the same use lists, user for user; the source is
// left unchanged. TestGoldenCorpusSSA pins the in-place form, so both
// match the recorded SSA form.
func TestBuildFromMatchesBuild(t *testing.T) {
	for _, pl := range placements {
		for _, b := range workload.Corpus(0.05) {
			for _, src := range b.Routines {
				name := pl.name + " " + src.Name
				before := src.String()
				got, err := ssa.BuildFrom(src, pl.p)
				if err != nil {
					t.Fatalf("%s: BuildFrom: %v", name, err)
				}
				if after := src.String(); after != before {
					t.Fatalf("%s: BuildFrom changed its source", name)
				}
				want := src.Clone()
				if err := ssa.Build(want, pl.p); err != nil {
					t.Fatalf("%s: Build: %v", name, err)
				}
				if g, w := got.String(), want.String(); g != w {
					t.Fatalf("%s: BuildFrom prints\n%s\nBuild prints\n%s", name, g, w)
				}
				if g, w := got.NumInstrIDs(), want.NumInstrIDs(); g != w {
					t.Fatalf("%s: NumInstrIDs %d, Build has %d", name, g, w)
				}
				if g, w := useLists(got), useLists(want); g != w {
					t.Fatalf("%s: use lists differ:\n%s\nvs\n%s", name, g, w)
				}
			}
		}
	}
}

// useLists renders every value's users, in use-list order, by id.
func useLists(r *ir.Routine) string {
	var sb strings.Builder
	r.Instrs(func(i *ir.Instr) {
		fmt.Fprintf(&sb, "%d:", i.ID)
		for _, u := range i.Uses() {
			fmt.Fprintf(&sb, " %d", u.ID)
		}
		sb.WriteByte('\n')
	})
	return sb.String()
}
