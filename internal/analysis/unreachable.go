package analysis

import (
	"go/ast"
	"go/types"
)

// Unreachable keeps the non-test build to code that runs: every
// function and method declared in the module must be reachable through
// references (calls, method values, function values) from a root:
//
//   - main and init;
//   - every exported function and method of the root package (the
//     library API);
//   - every function a package-level declaration references (a var
//     initialiser runs at start-up);
//   - every method whose name is a method of an interface type that the
//     module or one of its imports declares (it may be called
//     dynamically), plus Unwrap, Is and As, which package errors looks
//     up through anonymous interfaces;
//   - every declaration a //pgvn:allow unreachable comment covers, so
//     what a kept function calls is kept with it.
//
// Code only tests use belongs in _test.go files. The analysis needs the
// whole module, so it reports nothing unless the load includes the
// module's root package.
var Unreachable = &Analyzer{
	Name: "unreachable",
	Doc:  "every function must be reachable from main, init, the root package's exports, a package-level initialiser or an interface method name",
	Run:  runUnreachable,
}

// buildReachable collects the roots and the reference graph, then marks
// everything reachable from the roots. Generic instances map to their
// declaration through Origin.
func (m *Module) buildReachable() {
	m.reachable = make(map[*types.Func]bool)
	if m.root == nil {
		return
	}
	dynamic := m.interfaceMethodNames()
	refs := make(map[*types.Func][]*types.Func)
	var roots []*types.Func
	for _, pkg := range m.Pkgs {
		usesIn := func(n ast.Node, add func(*types.Func)) {
			ast.Inspect(n, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if fn, ok := pkg.Info.Uses[id].(*types.Func); ok {
						add(fn.Origin())
					}
				}
				return true
			})
		}
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					usesIn(d, func(fn *types.Func) { roots = append(roots, fn) })
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				name := fd.Name.Name
				allowed := Finding{Pos: m.Fset.Position(fd.Name.Pos()), Analyzer: "unreachable"}
				if fd.Recv == nil && (name == "init" || name == "main" && pkg.Types.Name() == "main") ||
					pkg == m.root && ast.IsExported(name) ||
					fd.Recv != nil && dynamic[name] ||
					pkg.suppressed(allowed) {
					roots = append(roots, obj)
				}
				if fd.Body != nil {
					usesIn(fd.Body, func(fn *types.Func) { refs[obj] = append(refs[obj], fn) })
				}
			}
		}
	}
	for len(roots) > 0 {
		fn := roots[len(roots)-1]
		roots = roots[:len(roots)-1]
		if !m.reachable[fn] {
			m.reachable[fn] = true
			roots = append(roots, refs[fn]...)
		}
	}
}

// interfaceMethodNames returns the method names of every interface type
// the module declares (named or literal) or its imports declare at
// package level, plus error's Error and Unwrap, Is and As.
func (m *Module) interfaceMethodNames() map[string]bool {
	names := map[string]bool{"Error": true, "Unwrap": true, "Is": true, "As": true}
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				names[it.Method(i).Name()] = true
			}
		}
	}
	seen := make(map[*types.Package]bool)
	var addPkg func(tp *types.Package)
	addPkg = func(tp *types.Package) {
		if seen[tp] {
			return
		}
		seen[tp] = true
		scope := tp.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, imp := range tp.Imports() {
			addPkg(imp)
		}
	}
	for _, pkg := range m.Pkgs {
		addPkg(pkg.Types)
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					addIface(pkg.Info.Types[it].Type)
				}
				return true
			})
		}
	}
	return names
}

func runUnreachable(p *Pass) {
	p.Mod.reachOnce.Do(p.Mod.buildReachable)
	if p.Mod.root == nil {
		return
	}
	for _, file := range p.Pkg.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if obj, ok := p.Pkg.Info.Defs[fd.Name].(*types.Func); ok && !p.Mod.reachable[obj] {
				p.Reportf(fd.Name, "%s is unreachable: no main, init, root-package export, package-level initialiser or interface method name reaches it", obj.FullName())
			}
		}
	}
}
