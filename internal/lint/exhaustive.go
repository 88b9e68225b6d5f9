package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// ExhaustiveSwitch returns the analyzer enforcing that every switch over a
// module-declared enum (a named integer type with at least two package-level
// constants, like core.Rule, core.Activation or the workload shape enums)
// either handles every declared constant explicitly or carries a default
// clause that fails loudly (panic, os.Exit, log.Fatal, or an error
// construction). A silent default over a scheduling-policy enum is how
// a newly added policy variant runs with the wrong semantics instead of
// crashing in the first test.
func ExhaustiveSwitch() *Analyzer {
	a := &Analyzer{
		Name: "exhaustive-policy-switch",
		Doc: "requires switches over repo-declared enums to handle every constant " +
			"or to fail loudly in default; silent defaults misroute newly added " +
			"policy variants",
	}
	a.Run = func(pass *Pass) {
		info := pass.Pkg.Info
		for _, f := range pass.Pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				sw, ok := n.(*ast.SwitchStmt)
				if !ok || sw.Tag == nil {
					return true
				}
				checkSwitch(pass, info, sw)
				return true
			})
		}
	}
	return a
}

func checkSwitch(pass *Pass, info *types.Info, sw *ast.SwitchStmt) {
	tagType := info.TypeOf(sw.Tag)
	named, ok := tagType.(*types.Named)
	if !ok {
		return
	}
	basic, ok := named.Underlying().(*types.Basic)
	if !ok || basic.Info()&types.IsInteger == 0 {
		return
	}
	declPkg := named.Obj().Pkg()
	if declPkg == nil {
		return
	}
	// Only enums declared inside the module under analysis count; stdlib
	// integer types (reflect.Kind and friends) are out of scope.
	mod := pass.Pkg.Module
	if declPkg.Path() != mod && !strings.HasPrefix(declPkg.Path(), mod+"/") {
		return
	}
	consts := enumConstants(declPkg, named)
	if len(consts) < 2 {
		return
	}

	covered := map[string]bool{}
	var defaultClause *ast.CaseClause
	for _, stmt := range sw.Body.List {
		cc, ok := stmt.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			defaultClause = cc
			continue
		}
		for _, expr := range cc.List {
			tv, ok := info.Types[expr]
			if !ok || tv.Value == nil {
				continue
			}
			for _, c := range consts {
				if constant.Compare(tv.Value, token.EQL, c.Val()) {
					covered[c.Name()] = true
				}
			}
		}
	}

	var missing []string
	for _, c := range consts {
		if !covered[c.Name()] {
			missing = append(missing, c.Name())
		}
	}
	if len(missing) == 0 {
		return
	}
	typeName := named.Obj().Name()
	if defaultClause == nil {
		pass.Reportf(sw.Switch,
			"switch over %s.%s does not handle %s and has no default; handle every constant "+
				"or add a default that panics/errors", declPkg.Name(), typeName, strings.Join(missing, ", "))
		return
	}
	if !defaultFails(info, defaultClause) {
		pass.Reportf(sw.Switch,
			"switch over %s.%s does not handle %s and its default is silent; a newly added "+
				"%s value would be misrouted — handle every constant or make the default panic/error",
			declPkg.Name(), typeName, strings.Join(missing, ", "), typeName)
	}
}

// enumConstants collects the package-level constants of exactly the named
// type, in declaration-scope order (sorted names, deterministic).
func enumConstants(pkg *types.Package, t *types.Named) []*types.Const {
	var out []*types.Const
	scope := pkg.Scope()
	for _, name := range scope.Names() { // Names() is sorted
		if c, ok := scope.Lookup(name).(*types.Const); ok && types.Identical(c.Type(), t) {
			out = append(out, c)
		}
	}
	return out
}

// defaultFails reports whether the default clause fails loudly: a panic, an
// os.Exit / log.Fatal* / runtime.Goexit call, or an error construction
// (fmt.Errorf, errors.New) anywhere in its body.
func defaultFails(info *types.Info, cc *ast.CaseClause) bool {
	failing := false
	for _, stmt := range cc.Body {
		ast.Inspect(stmt, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			switch fun := call.Fun.(type) {
			case *ast.Ident:
				if fun.Name == "panic" {
					if _, isBuiltin := info.Uses[fun].(*types.Builtin); isBuiltin || info.Uses[fun] == nil {
						failing = true
					}
				}
			case *ast.SelectorExpr:
				if obj, ok := info.Uses[fun.Sel].(*types.Func); ok && obj.Pkg() != nil {
					full := obj.Pkg().Path() + "." + obj.Name()
					switch full {
					case "os.Exit", "runtime.Goexit", "fmt.Errorf", "errors.New",
						"log.Fatal", "log.Fatalf", "log.Fatalln",
						"log.Panic", "log.Panicf", "log.Panicln":
						failing = true
					}
				}
			}
			return !failing
		})
		if failing {
			return true
		}
	}
	return false
}
