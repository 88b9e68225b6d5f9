package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/lint/callgraph"
)

// Hot-path annotations. ROADMAP item 2 demands a zero-allocation decision
// loop before scaling runs 100×; these markers let the code declare where
// that loop is, and the hotpath-alloc analyzer enforces it transitively:
//
//	//lint:hotpath   (in a function's doc comment) — the function and
//	                 everything reachable from it in the call graph is
//	                 checked for allocation idioms
//	//lint:coldpath  — reachability stops here: the function runs off the
//	                 event path by design (end-of-run aggregation, error
//	                 formatting) and its callees are not checked
const (
	hotpathMarker  = "lint:hotpath"
	coldpathMarker = "lint:coldpath"
)

// HotPathAlloc returns the whole-program analyzer that flags allocation
// idioms in every function reachable from a //lint:hotpath root. It is the
// machine check behind the observability overhead budgets: event overhead
// once stood at +92% (observer on) largely from per-event allocation, and a
// review-time promise not to allocate does not survive refactors — a
// call-graph reachability check does.
func HotPathAlloc() *Analyzer {
	a := &Analyzer{
		Name: "hotpath-alloc",
		Doc: "flags allocation idioms (escaping composite literals, interface boxing, " +
			"fmt formatting, string concatenation/conversion, closures, un-presized " +
			"append, make, slice/map literals) in every function reachable in the call " +
			"graph from a //lint:hotpath root; //lint:coldpath prunes reachability " +
			"where a callee is off the event path by design",
	}
	a.RunModule = func(p *ModulePass) {
		units := make([]*callgraph.Unit, 0, len(p.Pkgs))
		for _, pkg := range p.Pkgs {
			units = append(units, &callgraph.Unit{
				Path: pkg.Path, Files: pkg.Files, Types: pkg.Types, Info: pkg.Info,
			})
		}
		g := callgraph.Build(units)
		var roots []*types.Func
		skip := map[*types.Func]bool{}
		for _, fn := range g.Funcs() {
			switch funcMarker(g.Node(fn).Decl) {
			case hotpathMarker:
				roots = append(roots, fn)
			case coldpathMarker:
				skip[fn] = true
			}
		}
		if len(roots) == 0 {
			return
		}
		reach := g.Reachable(roots, skip)
		for _, fn := range g.Funcs() {
			root, ok := reach[fn]
			if !ok {
				continue
			}
			checkHotFunc(p, g.Node(fn), root)
		}
	}
	return a
}

// funcMarker returns the hotpath or coldpath marker found in decl's doc
// comment, or "".
func funcMarker(decl *ast.FuncDecl) string {
	if decl.Doc == nil {
		return ""
	}
	for _, c := range decl.Doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		for _, m := range []string{hotpathMarker, coldpathMarker} {
			if text == m || strings.HasPrefix(text, m+" ") {
				return m
			}
		}
	}
	return ""
}

// checkHotFunc reports every allocation idiom in one hot-path function.
func checkHotFunc(p *ModulePass, node *callgraph.Node, root *types.Func) {
	info := node.Unit.Info
	rootStr := callgraph.FuncString(root)
	report := func(pos token.Pos, format string, args ...any) {
		args = append(args, rootStr)
		p.Reportf(pos, format+" on the hot path (root %s)", args...)
	}

	litSpans := [][2]token.Pos{}
	ast.Inspect(node.Decl, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			litSpans = append(litSpans, [2]token.Pos{fl.Pos(), fl.End()})
		}
		return true
	})
	presized := presizedSlices(info, node.Decl)
	exempt := panicArgSpans(info, node.Decl)
	sig := node.Func.Type().(*types.Signature)

	ast.Inspect(node.Decl, func(n ast.Node) bool {
		if n != nil && inAnySpan(n.Pos(), exempt) {
			// Formatting a panic message is death-path work: the run is
			// already over, so allocation there is not a hot-path cost.
			return true
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			report(n.Pos(), "closure value allocates")
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					report(n.Pos(), "&composite literal escapes to the heap")
				}
			}
		case *ast.CompositeLit:
			if t := info.TypeOf(n); t != nil {
				switch t.Underlying().(type) {
				case *types.Slice:
					report(n.Pos(), "slice literal allocates its backing array")
				case *types.Map:
					report(n.Pos(), "map literal allocates")
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isStringType(info.TypeOf(n)) && info.Types[n].Value == nil {
				report(n.OpPos, "string concatenation allocates")
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isStringType(info.TypeOf(n.Lhs[0])) {
				report(n.TokPos, "string concatenation allocates")
			}
			if n.Tok == token.ASSIGN && len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					if boxes(info, info.TypeOf(n.Lhs[i]), n.Rhs[i]) {
						report(n.Rhs[i].Pos(), "implicit interface conversion boxes %s",
							types.ExprString(n.Rhs[i]))
					}
				}
			}
		case *ast.ValueSpec:
			if n.Type != nil && len(n.Names) == len(n.Values) {
				for i := range n.Values {
					if boxes(info, info.TypeOf(n.Type), n.Values[i]) {
						report(n.Values[i].Pos(), "implicit interface conversion boxes %s",
							types.ExprString(n.Values[i]))
					}
				}
			}
		case *ast.ReturnStmt:
			if inAnySpan(n.Pos(), litSpans) {
				return true // a literal's results are not this function's
			}
			if len(n.Results) == sig.Results().Len() {
				for i, res := range n.Results {
					if boxes(info, sig.Results().At(i).Type(), res) {
						report(res.Pos(), "implicit interface conversion boxes %s",
							types.ExprString(res))
					}
				}
			}
		case *ast.CallExpr:
			checkHotCall(info, n, presized, report)
		}
		return true
	})
}

// checkHotCall handles the call-shaped idioms: allocating conversions,
// un-presized append, make, fmt formatting, and interface boxing of
// arguments.
func checkHotCall(info *types.Info, call *ast.CallExpr, presized map[types.Object]bool, report func(token.Pos, string, ...any)) {
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			to, from := tv.Type, info.TypeOf(call.Args[0])
			switch {
			case isStringType(to) && isByteOrRuneSlice(from):
				report(call.Pos(), "string conversion from a byte/rune slice copies and allocates")
			case isByteOrRuneSlice(to) && isStringType(from):
				report(call.Pos(), "byte/rune slice conversion from a string copies and allocates")
			}
		}
		return
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch {
			case b.Name() == "append" && len(call.Args) > 0:
				checkAppend(info, call, presized, report)
			case b.Name() == "make":
				report(call.Pos(), "make allocates a new %s", types.ExprString(call.Args[0]))
			}
			return
		}
	}
	if path, name, ok := pkgQualifiedCall(info, call); ok && path == "fmt" {
		report(call.Pos(), "fmt.%s formats and allocates", name)
		return // argument boxing is subsumed by the formatting report
	}
	funT := info.TypeOf(call.Fun)
	if funT == nil {
		return
	}
	sig, ok := funT.Underlying().(*types.Signature)
	if !ok {
		return
	}
	if call.Ellipsis != token.NoPos {
		return // s... passes the slice through; no per-element boxing
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var paramT types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if s, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				paramT = s.Elem()
			}
		case i < params.Len():
			paramT = params.At(i).Type()
		}
		if boxes(info, paramT, arg) {
			report(arg.Pos(), "passing %s boxes it into an interface parameter",
				types.ExprString(arg))
		}
	}
}

// checkAppend flags append calls whose destination has no visible presized
// capacity: a 3-arg make or a [:0] reslice of an existing buffer.
func checkAppend(info *types.Info, call *ast.CallExpr, presized map[types.Object]bool, report func(token.Pos, string, ...any)) {
	base := ast.Unparen(call.Args[0])
	switch b := base.(type) {
	case *ast.Ident:
		if presized[objectOf(info, b)] {
			return
		}
	case *ast.SliceExpr:
		if isZeroReslice(b) {
			return
		}
	}
	report(call.Pos(), "append to %s without presized capacity may grow and reallocate",
		types.ExprString(call.Args[0]))
}

// presizedSlices collects the local slice variables of decl that were given
// explicit capacity — make([]T, n, c) or a buf[:0] reslice — and may
// therefore be appended to without reallocation.
func presizedSlices(info *types.Info, decl *ast.FuncDecl) map[types.Object]bool {
	out := map[types.Object]bool{}
	ast.Inspect(decl, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			id, ok := as.Lhs[i].(*ast.Ident)
			if !ok {
				continue
			}
			obj := objectOf(info, id)
			if obj == nil {
				continue
			}
			switch r := ast.Unparen(rhs).(type) {
			case *ast.CallExpr:
				if bid, ok := ast.Unparen(r.Fun).(*ast.Ident); ok {
					if b, ok := info.Uses[bid].(*types.Builtin); ok && b.Name() == "make" && len(r.Args) == 3 {
						out[obj] = true
					}
				}
			case *ast.SliceExpr:
				if isZeroReslice(r) {
					out[obj] = true
				}
			}
		}
		return true
	})
	return out
}

// panicArgSpans collects the source spans of every argument to the builtin
// panic inside decl. Allocations there format a crash message for a run that
// is already dead, so the hot-path check exempts them.
func panicArgSpans(info *types.Info, decl *ast.FuncDecl) [][2]token.Pos {
	var spans [][2]token.Pos
	ast.Inspect(decl, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok {
			return true
		}
		if b, ok := info.Uses[id].(*types.Builtin); !ok || b.Name() != "panic" {
			return true
		}
		for _, arg := range call.Args {
			spans = append(spans, [2]token.Pos{arg.Pos(), arg.End()})
		}
		return true
	})
	return spans
}

// objectOf resolves an identifier whether it defines or uses its object.
func objectOf(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Defs[id]; obj != nil {
		return obj
	}
	return info.Uses[id]
}

// isZeroReslice matches x[:0] (and x[0:0]).
func isZeroReslice(se *ast.SliceExpr) bool {
	if se.Slice3 || se.High == nil {
		return false
	}
	hi, ok := se.High.(*ast.BasicLit)
	if !ok || hi.Value != "0" {
		return false
	}
	if se.Low == nil {
		return true
	}
	lo, ok := se.Low.(*ast.BasicLit)
	return ok && lo.Value == "0"
}

// boxes reports whether assigning src to a destination of type dst converts
// a concrete, non-pointer-shaped value to an interface — which copies the
// value to the heap. Pointer-shaped values (pointers, maps, channels,
// functions) fit the interface data word directly; constants are excluded
// as noise (small values are interned by the runtime).
func boxes(info *types.Info, dst types.Type, src ast.Expr) bool {
	if dst == nil {
		return false
	}
	if _, ok := dst.Underlying().(*types.Interface); !ok {
		return false
	}
	t := info.TypeOf(src)
	if t == nil {
		return false
	}
	if b, ok := t.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return false
	}
	if _, ok := t.Underlying().(*types.Interface); ok {
		return false // interface-to-interface carries the existing box
	}
	if tv, ok := info.Types[src]; ok && tv.Value != nil {
		return false
	}
	return !pointerShaped(t)
}

// pointerShaped reports whether values of t occupy exactly one pointer word,
// so interface conversion stores them inline without allocating.
func pointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Map, *types.Chan, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}

// isStringType reports whether t's underlying type is string.
func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// isByteOrRuneSlice reports whether t is []byte or []rune.
func isByteOrRuneSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
		b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

// pkgQualifiedCall matches calls of the form pkg.Fn(...) and returns the
// package's import path and the function name.
func pkgQualifiedCall(info *types.Info, call *ast.CallExpr) (path, name string, ok bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", "", false
	}
	x, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return "", "", false
	}
	pn, ok := info.Uses[x].(*types.PkgName)
	if !ok {
		return "", "", false
	}
	return pn.Imported().Path(), sel.Sel.Name, true
}
