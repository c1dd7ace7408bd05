// Package analysis is gvnlint's engine: a stdlib-only static-analysis
// harness (go/parser + go/types, driven by `go list`) that enforces the
// repository's performance and concurrency invariants at compile time.
//
// Its six analyzers encode invariants that a prior optimization or
// hardening pass bought, or that keep the build to code that runs, and
// that runtime tests alone would guard late and probabilistically:
//
//   - hotpathalloc: functions annotated //pgvn:hotpath — and everything
//     they statically call inside the module — stay free of the
//     allocation patterns the hash-consing pass removed (fmt, string
//     concatenation in loops, map/slice literals, escaping closures,
//     interface boxing).
//   - tracerguard: the internal/obs tracing and metrics API stays
//     nil-receiver-safe, so `tr != nil` remains the only cost of
//     disabled observability.
//   - ctxflow: HTTP I/O in internal/server and internal/cluster always
//     carries a context, and spawned goroutines always have a stop
//     signal, so graceful drain can never strand work.
//   - lockscope: no mutex is held across network or disk I/O (the store
//     package's own lock is the deliberate, annotated exception).
//   - metricname: metric names registered with internal/obs are
//     compile-time constants in the pgvn-metrics/v5 grammar, so
//     snapshot schemas cannot drift at runtime.
//   - unreachable: every function and method of the non-test build is
//     reachable from main, init, the root package's exports, a
//     package-level initialiser or an interface method name, so the
//     build ships only code that runs.
//
// A finding is suppressed by a `//pgvn:allow <analyzer>` comment on the
// offending line, the line above it, or the doc comment of the
// enclosing function — the escape hatch for invariant exceptions that
// are by design, which keeps every exception greppable and reviewed.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// Analyzer is one named invariant check. Run receives a fully
// type-checked package (plus the whole-module view on Pass.Mod) and
// reports findings through Pass.Reportf.
type Analyzer struct {
	// Name is the analyzer's identity: the CLI filter, the finding
	// prefix, and the token a //pgvn:allow comment names.
	Name string
	// Doc is a one-line description of the enforced invariant.
	Doc string
	// Run analyzes one package.
	Run func(p *Pass)
}

// All returns the full analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		HotPathAlloc,
		TracerGuard,
		CtxFlow,
		LockScope,
		MetricName,
		Unreachable,
	}
}

// ByName resolves a comma-separated analyzer filter ("" = all).
func ByName(filter string) ([]*Analyzer, error) {
	if filter == "" {
		return All(), nil
	}
	byName := make(map[string]*Analyzer)
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, name := range strings.Split(filter, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("analysis: unknown analyzer %q", name)
		}
		out = append(out, a)
	}
	return out, nil
}

// Finding is one diagnostic: a position, the convicting analyzer, and a
// human-readable message.
type Finding struct {
	// Pos locates the offending node.
	Pos token.Position `json:"pos"`
	// Analyzer names the invariant that was violated.
	Analyzer string `json:"analyzer"`
	// Message explains the violation.
	Message string `json:"message"`

	// declPos is the position of the enclosing function declaration
	// (zero when the finding is not inside one); suppression comments on
	// the declaration cover the whole function body.
	declPos token.Position
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Pos, f.Analyzer, f.Message)
}

// Pass is one (package, analyzer) run.
type Pass struct {
	// Mod is the whole-module view (all packages, call graph).
	Mod *Module
	// Pkg is the package under analysis.
	Pkg *Package
	// Analyzer is the running analyzer.
	Analyzer *Analyzer

	findings []Finding
}

// Reportf records a finding at n. The enclosing function declaration,
// when any, scopes declaration-level suppression comments.
func (p *Pass) Reportf(n ast.Node, format string, args ...any) {
	f := Finding{
		Pos:      p.Mod.Fset.Position(n.Pos()),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	}
	if d := p.Pkg.enclosingDecl(n.Pos()); d != nil {
		f.declPos = p.Mod.Fset.Position(d.Pos())
	}
	p.findings = append(p.findings, f)
}

// Run executes the analyzers over every module package, in parallel per
// package, and returns the unsuppressed findings sorted by position.
func (m *Module) Run(analyzers []*Analyzer) []Finding {
	results := make([][]Finding, len(m.Pkgs))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, pkg := range m.Pkgs {
		wg.Add(1)
		go func(i int, pkg *Package) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			for _, a := range analyzers {
				pass := &Pass{Mod: m, Pkg: pkg, Analyzer: a}
				a.Run(pass)
				results[i] = append(results[i], pass.findings...)
			}
		}(i, pkg)
	}
	wg.Wait()
	var out []Finding
	for i, pkg := range m.Pkgs {
		for _, f := range results[i] {
			if !pkg.suppressed(f) {
				out = append(out, f)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}

// allowRE matches a suppression directive; the capture is the
// comma-separated analyzer list. Anything after the list (": reason")
// is free-form justification — annotations are expected to say why.
var allowRE = regexp.MustCompile(`//pgvn:allow\s+([a-z0-9_]+(?:\s*,\s*[a-z0-9_]+)*)`)

// allows maps file name → line → analyzer names allowed on that line.
func (p *Package) buildAllows() {
	p.allows = make(map[string]map[int][]string)
	for _, file := range p.Files {
		fname := p.mod.Fset.Position(file.Pos()).Filename
		lines := p.allows[fname]
		if lines == nil {
			lines = make(map[int][]string)
			p.allows[fname] = lines
		}
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				sub := allowRE.FindStringSubmatch(c.Text)
				if sub == nil {
					continue
				}
				line := p.mod.Fset.Position(c.Pos()).Line
				for _, name := range strings.Split(sub[1], ",") {
					if name = strings.TrimSpace(name); name != "" {
						lines[line] = append(lines[line], name)
					}
				}
			}
		}
	}
}

// suppressed reports whether a //pgvn:allow comment covers the finding:
// on its line, the line immediately above, or the enclosing function's
// declaration (its doc comment sits on the lines just above the decl).
func (p *Package) suppressed(f Finding) bool {
	p.allowOnce.Do(p.buildAllows)
	lines := p.allows[f.Pos.Filename]
	if lines == nil {
		return false
	}
	candidates := []int{f.Pos.Line, f.Pos.Line - 1}
	if f.declPos.Line > 0 && f.declPos.Filename == f.Pos.Filename {
		// The decl line itself and the doc-comment line above it.
		candidates = append(candidates, f.declPos.Line, f.declPos.Line-1)
	}
	for _, line := range candidates {
		for _, name := range lines[line] {
			if name == f.Analyzer {
				return true
			}
		}
	}
	return false
}

// enclosingDecl returns the function declaration whose extent contains
// pos, or nil.
func (p *Package) enclosingDecl(pos token.Pos) *ast.FuncDecl {
	for _, file := range p.Files {
		if pos < file.Pos() || pos > file.End() {
			continue
		}
		for _, d := range file.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && pos >= fd.Pos() && pos <= fd.End() {
				return fd
			}
		}
	}
	return nil
}

// exprString renders an expression for structural comparison and
// diagnostics ("a.tr", "s.mu").
func exprString(e ast.Expr) string { return types.ExprString(e) }

// walkStack is ast.Inspect with an ancestor stack: fn receives each node
// together with its ancestors (outermost first, excluding the node
// itself) and returns whether to descend.
func walkStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		descend := fn(n, stack)
		if descend {
			stack = append(stack, n)
		}
		return descend
	})
}
