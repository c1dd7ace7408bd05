package analysis

import (
	"bufio"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantMarker introduces expectations; every quoted string after it on
// the line is one expected-finding regexp (`// want "a" "b"`).
const wantMarker = "// want "

var wantQuoteRE = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

// expectation is one unmet `// want` comment.
type expectation struct {
	re  *regexp.Regexp
	met bool
}

// collectWants scans every fixture source file for `// want "regex"`
// comments, keyed by absolute filename and line.
func collectWants(t *testing.T, dir string) map[string]map[int][]*expectation {
	t.Helper()
	wants := make(map[string]map[int][]*expectation)
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		abs, err := filepath.Abs(path)
		if err != nil {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			i := strings.Index(sc.Text(), wantMarker)
			if i < 0 {
				continue
			}
			for _, m := range wantQuoteRE.FindAllStringSubmatch(sc.Text()[i+len(wantMarker):], -1) {
				re, err := regexp.Compile(m[1])
				if err != nil {
					return fmt.Errorf("%s:%d: bad want regexp %q: %v", path, line, m[1], err)
				}
				byLine := wants[abs]
				if byLine == nil {
					byLine = make(map[int][]*expectation)
					wants[abs] = byLine
				}
				byLine[line] = append(byLine[line], &expectation{re: re})
			}
		}
		return sc.Err()
	})
	if err != nil {
		t.Fatalf("collecting want comments: %v", err)
	}
	return wants
}

// runFixture loads the analyzer's fixture module and checks its
// findings against the `// want` expectations: every finding must match
// a want on its line, and every want must be matched. The suppressed
// violations in the fixtures carry no want, so their absence here is
// the negative proof that //pgvn:allow works.
func runFixture(t *testing.T, a *Analyzer) {
	t.Helper()
	dir := filepath.Join("testdata", "src", a.Name)
	mod, err := Load(dir)
	if err != nil {
		t.Fatalf("loading fixture module: %v", err)
	}
	findings := mod.Run([]*Analyzer{a})
	wants := collectWants(t, dir)

	convicted := 0
	for _, f := range findings {
		matched := false
		for _, e := range wants[f.Pos.Filename][f.Pos.Line] {
			if !e.met && e.re.MatchString(f.Message) {
				e.met = true
				matched = true
				convicted++
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for file, byLine := range wants {
		for line, es := range byLine {
			for _, e := range es {
				if !e.met {
					t.Errorf("%s:%d: expected a finding matching %q, got none", file, line, e.re)
				}
			}
		}
	}
	if convicted == 0 {
		t.Errorf("analyzer %s convicted nothing in its fixture", a.Name)
	}
}

func TestHotPathAllocFixture(t *testing.T) { runFixture(t, HotPathAlloc) }
func TestTracerGuardFixture(t *testing.T)  { runFixture(t, TracerGuard) }
func TestCtxFlowFixture(t *testing.T)      { runFixture(t, CtxFlow) }
func TestLockScopeFixture(t *testing.T)    { runFixture(t, LockScope) }
func TestMetricNameFixture(t *testing.T)   { runFixture(t, MetricName) }
func TestUnreachableFixture(t *testing.T)  { runFixture(t, Unreachable) }

// TestSelfLint runs the full suite over the repository itself: the tree
// must stay clean, because CI's lint job fails on any finding. Skipped
// under -short (it loads and type-checks the whole module).
func TestSelfLint(t *testing.T) {
	if testing.Short() {
		t.Skip("self-lint loads the whole module; skipped in -short")
	}
	mod, err := Load("../..")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	findings := mod.Run(All())
	for _, f := range findings {
		t.Errorf("self-lint: %s", f)
	}
}

func TestByName(t *testing.T) {
	all, err := ByName("")
	if err != nil || len(all) != len(All()) {
		t.Fatalf("ByName(\"\") = %d analyzers, err %v; want %d, nil", len(all), err, len(All()))
	}
	subset, err := ByName("lockscope, metricname")
	if err != nil || len(subset) != 2 || subset[0].Name != "lockscope" || subset[1].Name != "metricname" {
		t.Fatalf("ByName subset = %v, err %v", subset, err)
	}
	if _, err := ByName("nosuch"); err == nil {
		t.Fatal("ByName(\"nosuch\") succeeded; want error")
	}
}
