package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
)

// Package is one type-checked module package.
type Package struct {
	// ImportPath is the package's import path ("pgvn/internal/core").
	ImportPath string
	// Dir is the package's source directory.
	Dir string
	// Files are the parsed (non-test) source files.
	Files []*ast.File
	// Types and Info carry the go/types results.
	Types *types.Package
	Info  *types.Info

	mod       *Module
	allows    map[string]map[int][]string
	allowOnce sync.Once
}

// Module is the analyzed module: every package matched by the load
// patterns, type-checked against one shared file set, plus the lazily
// built whole-module facts the analyzers share (call graph, hot-path
// closure, I/O taint, nil-safe obs API, reachable functions).
type Module struct {
	// Fset positions every parsed file.
	Fset *token.FileSet
	// Pkgs are the analyzed packages in dependency order (imports
	// first).
	Pkgs []*Package

	byPath map[string]*Package

	callOnce sync.Once
	callees  map[*types.Func][]*types.Func
	declOf   map[*types.Func]*funcDecl

	hotOnce sync.Once
	hotVia  map[*types.Func]string

	taintOnce sync.Once
	tainted   map[*types.Func]bool

	nilSafeOnce sync.Once
	nilSafe     map[*types.Named]map[string]bool

	// root is the module's root package (the library API), nil when the
	// load does not include it.
	root      *Package
	reachOnce sync.Once
	reachable map[*types.Func]bool
}

// listPkg is the slice of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Dir        string
	Name       string
	GoFiles    []string
	Export     string
	Standard   bool
	DepOnly    bool
	Module     *struct{ Path string }
	Error      *struct{ Err string }
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// Load enumerates, parses and type-checks the packages matched by
// patterns (relative to dir), preserving the module's zero-dependency
// property: the go command supplies the package graph and dependency
// export data (`go list -deps -export -json`), go/parser and go/types
// do the rest. Matched packages are checked from source so analyzers
// see full ASTs; dependencies (the stdlib) are imported from compiled
// export data, which keeps a whole-module load in the hundreds of
// milliseconds.
func Load(dir string, patterns ...string) (*Module, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := []string{"list", "-deps", "-export",
		"-json=ImportPath,Dir,Name,GoFiles,Export,Standard,DepOnly,Module,Error"}
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: go list: %v\n%s", err, stderr.String())
	}

	exports := map[string]string{}
	var targets []*listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("analysis: decoding go list output: %v", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("analysis: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly && !p.Standard {
			q := p
			targets = append(targets, &q)
		}
	}
	if len(targets) == 0 {
		return nil, fmt.Errorf("analysis: no packages matched %v", patterns)
	}

	m := &Module{Fset: token.NewFileSet(), byPath: make(map[string]*Package)}
	gc := importer.ForCompiler(m.Fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})
	checked := map[string]*types.Package{}
	lookup := importerFunc(func(path string) (*types.Package, error) {
		if tp, ok := checked[path]; ok {
			return tp, nil
		}
		return gc.Import(path)
	})

	// `go list -deps` emits dependencies before dependents, so checking
	// in emission order guarantees every module-internal import is
	// already in `checked`.
	for _, lp := range targets {
		pkg := &Package{ImportPath: lp.ImportPath, Dir: lp.Dir, mod: m}
		for _, name := range lp.GoFiles {
			af, err := parser.ParseFile(m.Fset, filepath.Join(lp.Dir, name), nil,
				parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, fmt.Errorf("analysis: %v", err)
			}
			pkg.Files = append(pkg.Files, af)
		}
		pkg.Info = &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Implicits:  make(map[ast.Node]types.Object),
		}
		conf := types.Config{Importer: lookup}
		tp, err := conf.Check(lp.ImportPath, m.Fset, pkg.Files, pkg.Info)
		if err != nil {
			return nil, fmt.Errorf("analysis: type-checking %s: %v", lp.ImportPath, err)
		}
		pkg.Types = tp
		checked[lp.ImportPath] = tp
		m.Pkgs = append(m.Pkgs, pkg)
		m.byPath[lp.ImportPath] = pkg
		if lp.Module != nil && lp.Module.Path == lp.ImportPath {
			m.root = pkg
		}
	}
	return m, nil
}

// isModulePkg reports whether tp is one of the analyzed packages (as
// opposed to an imported dependency).
func (m *Module) isModulePkg(tp *types.Package) bool {
	if tp == nil {
		return false
	}
	_, ok := m.byPath[tp.Path()]
	return ok
}

// pathHasSegment reports whether any '/'-separated segment of the
// import path equals seg — how analyzers scope themselves to subsystem
// packages ("server", "cluster") in both the real module and fixture
// modules.
func pathHasSegment(path, seg string) bool {
	for _, s := range strings.Split(path, "/") {
		if s == seg {
			return true
		}
	}
	return false
}
