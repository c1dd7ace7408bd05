// Command gvnlint runs the repository's own static-analysis suite
// (internal/analysis): six analyzers that enforce the performance and
// concurrency invariants prior optimization passes bought, and that
// every function in the build is reachable — see the package
// documentation of internal/analysis for the invariant each pass
// encodes.
//
// Usage:
//
//	gvnlint [flags] [packages]
//
//	gvnlint ./...                 # lint the whole module
//	gvnlint -run lockscope ./...  # one analyzer only
//	gvnlint -json out.json ./...  # machine-readable findings
//	gvnlint -list                 # describe the analyzers
//
// Findings print as `file:line:col: analyzer: message`. The exit code
// is 0 when the tree is clean, 1 when there are unsuppressed findings,
// and 2 when the load itself fails (parse or type error). A finding is
// suppressed by a `//pgvn:allow <analyzer>` comment on the offending
// line, the line above it, or the enclosing function's doc comment.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"pgvn/internal/analysis"
)

// findingsSchema tags the -json output so CI artifact consumers can
// dispatch on format.
const findingsSchema = "gvnlint-findings/v1"

// report is the -json document.
type report struct {
	Schema    string             `json:"schema"`
	Packages  int                `json:"packages"`
	Analyzers []string           `json:"analyzers"`
	ElapsedMS int64              `json:"elapsed_ms"`
	Findings  []analysis.Finding `json:"findings"`
}

func main() {
	var (
		jsonOut = flag.String("json", "", "write findings as JSON to this file (\"-\" for stdout)")
		run     = flag.String("run", "", "comma-separated analyzer subset (default: all)")
		list    = flag.Bool("list", false, "list the analyzers and exit")
		dir     = flag.String("C", ".", "change to this directory before loading")
		quiet   = flag.Bool("q", false, "suppress the summary line")
	)
	flag.Parse()

	analyzers, err := analysis.ByName(*run)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gvnlint:", err)
		os.Exit(2)
	}
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	start := time.Now()
	mod, err := analysis.Load(*dir, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gvnlint:", err)
		os.Exit(2)
	}
	findings := mod.Run(analyzers)
	elapsed := time.Since(start)

	for _, f := range findings {
		fmt.Println(f)
	}
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, mod, analyzers, findings, elapsed); err != nil {
			fmt.Fprintln(os.Stderr, "gvnlint:", err)
			os.Exit(2)
		}
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "gvnlint: %d packages, %d analyzers, %d findings in %v\n",
			len(mod.Pkgs), len(analyzers), len(findings), elapsed.Round(time.Millisecond))
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}

// writeJSON renders the findings report.
func writeJSON(path string, mod *analysis.Module, analyzers []*analysis.Analyzer, findings []analysis.Finding, elapsed time.Duration) error {
	names := make([]string, len(analyzers))
	for i, a := range analyzers {
		names[i] = a.Name
	}
	if findings == nil {
		findings = []analysis.Finding{} // render [] rather than null
	}
	r := report{
		Schema:    findingsSchema,
		Packages:  len(mod.Pkgs),
		Analyzers: names,
		ElapsedMS: elapsed.Milliseconds(),
		Findings:  findings,
	}
	w := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
