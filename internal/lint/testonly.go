package lint

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/lint/callgraph"
)

// The test-support marker:
//
//	//lint:testonly <reason>  (in a function's doc comment) — the function is
//	                          a helper, fixture or oracle that tests of
//	                          several packages use to check other code; it
//	                          and everything it reaches are exempt
//
// The reason is mandatory, and a mark on a function some program already
// reaches is stale: both are findings.
const testonlyMarker = "lint:testonly"

// stdInterfaces are the standard-library interfaces through which the
// standard library itself calls module methods: error and fmt's Stringer,
// encoding/json's marshalers, net/http's handler and go/types' importers. A
// module method that implements one of them is a root, since the call that
// reaches it is in code the call graph does not hold. Interfaces of packages
// the program does not import are skipped. The list holds the interfaces
// module types implement; one a new type implements joins it when the
// analyzer reports a method the standard library reaches through it.
var stdInterfaces = []struct{ pkg, name string }{
	{"", "error"},
	{"fmt", "Stringer"},
	{"encoding/json", "Marshaler"},
	{"encoding/json", "Unmarshaler"},
	{"net/http", "Handler"},
	{"go/types", "Importer"},
	{"go/types", "ImporterFrom"},
}

// TestOnly returns the whole-program analyzer that reports every function
// or method, declared in a non-test file, that no program reaches. Tests
// are not programs: a function only tests call is code the module carries
// for nothing but its own tests, and scripts/loc.sh counts it as code all
// the same.
//
// The roots are the main and init functions and package-level initializers
// of every package, the root package's exported functions and the exported
// methods of every type it exports or aliases, the methods the standard
// library calls through stdInterfaces, every function of a nested reader
// module (perfbench/, Package.Reader), and the functions marked
// //lint:testonly. A module without a program root (no package main, no
// root package) has nothing to measure reachability from, and the analyzer
// is silent there.
func TestOnly() *Analyzer {
	a := &Analyzer{
		Name: "testonly",
		Doc: "flags functions and methods no program reaches (only tests, or nothing, " +
			"call them); roots are every main, init and package-level initializer, the " +
			"root package's API, the standard library's interface callbacks and the " +
			"nested benchmark module's calls; //lint:testonly <reason> marks deliberate " +
			"test support, and a mark without a reason or on reached code is reported",
	}
	a.RunModule = func(p *ModulePass) {
		all := append(append([]*Package(nil), p.Pkgs...), p.Readers...)
		units := make([]*callgraph.Unit, len(all))
		reader := map[*callgraph.Unit]bool{}
		for i, pkg := range all {
			units[i] = &callgraph.Unit{Path: pkg.Path, Files: pkg.Files, Types: pkg.Types, Info: pkg.Info}
			reader[units[i]] = pkg.Reader
		}
		g := callgraph.Build(units)

		roots, ok := programRoots(all, g, reader)
		if !ok {
			return
		}
		var marked []*types.Func
		for _, fn := range g.Funcs() {
			node := g.Node(fn)
			reason, ok := testonlyMark(node.Decl)
			if !ok || reader[node.Unit] {
				continue
			}
			if reason == "" {
				p.Reportf(node.Decl.Name.Pos(), "%s: the mark needs a reason: //lint:testonly <reason>",
					callgraph.FuncString(fn))
			}
			marked = append(marked, fn)
		}

		reach := g.Reachable(roots, nil)
		for _, fn := range marked {
			if from, ok := reach[fn]; ok {
				p.Reportf(g.Node(fn).Decl.Name.Pos(),
					"%s is marked //lint:testonly but a program reaches it (from %s); drop the mark",
					callgraph.FuncString(fn), callgraph.FuncString(from))
			}
		}
		reach = g.Reachable(append(roots, marked...), nil)
		for _, fn := range g.Funcs() {
			node := g.Node(fn)
			if _, ok := reach[fn]; ok || reader[node.Unit] || node.Decl.Name.Name == "_" {
				continue
			}
			p.Reportf(node.Decl.Name.Pos(),
				"%s is reached by no program: delete it, move it into the tests that use it, "+
					"or mark it //lint:testonly <reason>", callgraph.FuncString(fn))
		}
	}
	return a
}

// testonlyMark reports whether decl's doc comment carries the
// //lint:testonly mark, and returns its reason.
func testonlyMark(decl *ast.FuncDecl) (reason string, ok bool) {
	if decl.Doc == nil {
		return "", false
	}
	for _, c := range decl.Doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if rest, ok := strings.CutPrefix(text, testonlyMarker); ok && (rest == "" || rest[0] == ' ') {
			return strings.TrimSpace(rest), true
		}
	}
	return "", false
}

// programRoots collects the functions programs start from (see TestOnly).
// It reports false when no package is a package main and none is the root
// package.
func programRoots(pkgs []*Package, g *callgraph.Graph, reader map[*callgraph.Unit]bool) ([]*types.Func, bool) {
	var roots []*types.Func
	program := false
	for _, e := range g.Init {
		roots = append(roots, e.Callee)
	}
	for _, fn := range g.Funcs() {
		node := g.Node(fn)
		fun := fn.Type().(*types.Signature).Recv() == nil
		main := fun && fn.Name() == "main" && node.Unit.Types.Name() == "main"
		if reader[node.Unit] || main || fun && fn.Name() == "init" {
			roots = append(roots, fn)
		}
		program = program || main
	}
	for _, pkg := range pkgs {
		if pkg.Path != pkg.Module || pkg.Reader {
			continue
		}
		program = true
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			switch obj := scope.Lookup(name).(type) {
			case *types.Func:
				if obj.Exported() {
					roots = append(roots, obj)
				}
			case *types.TypeName:
				if obj.Exported() {
					roots = append(roots, exportedMethods(obj.Type())...)
				}
			}
		}
	}
	return append(roots, stdCallbacks(pkgs)...), program
}

// exportedMethods returns the exported methods in the method set of *t (or
// of t, for an interface or pointer type).
func exportedMethods(t types.Type) []*types.Func {
	if _, ok := t.Underlying().(*types.Interface); !ok {
		if _, ok := t.(*types.Pointer); !ok {
			t = types.NewPointer(t)
		}
	}
	var out []*types.Func
	ms := types.NewMethodSet(t)
	for i := 0; i < ms.Len(); i++ {
		if fn, ok := ms.At(i).Obj().(*types.Func); ok && fn.Exported() {
			out = append(out, fn)
		}
	}
	return out
}

// stdCallbacks returns the module methods that implement a method of one of
// stdInterfaces.
func stdCallbacks(pkgs []*Package) []*types.Func {
	imported := map[string]*types.Package{}
	var walk func(*types.Package)
	walk = func(tp *types.Package) {
		for _, imp := range tp.Imports() {
			if imported[imp.Path()] == nil {
				imported[imp.Path()] = imp
				walk(imp)
			}
		}
	}
	for _, pkg := range pkgs {
		walk(pkg.Types)
	}
	var ifaces []*types.Interface
	for _, si := range stdInterfaces {
		scope := types.Universe
		if si.pkg != "" {
			tp := imported[si.pkg]
			if tp == nil {
				continue
			}
			scope = tp.Scope()
		}
		if tn, ok := scope.Lookup(si.name).(*types.TypeName); ok {
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				ifaces = append(ifaces, it)
			}
		}
	}

	var out []*types.Func
	for _, pkg := range pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || named.TypeParams().Len() > 0 {
				continue
			}
			ptr := types.NewPointer(named)
			for _, it := range ifaces {
				if !types.Implements(ptr, it) {
					continue
				}
				for i := 0; i < it.NumMethods(); i++ {
					m := it.Method(i)
					obj, _, _ := types.LookupFieldOrMethod(ptr, false, m.Pkg(), m.Name())
					if fn, ok := obj.(*types.Func); ok {
						out = append(out, fn)
					}
				}
			}
		}
	}
	return out
}
