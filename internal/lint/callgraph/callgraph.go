// Package callgraph builds a whole-program call graph over a type-checked
// module, using only the standard library's go/ast and go/types (keeping the
// repository's stdlib-only promise — no golang.org/x/tools).
//
// The graph is the substrate of internal/lint's whole-program analyzers:
// hotpath-alloc computes the set of functions reachable from annotated
// //lint:hotpath roots and flags allocation idioms anywhere in that set, so
// the zero-allocation goal of the scheduler decision loop survives interface
// indirection (sched.Scheduler, obs.Sink) and helper extraction.
//
// Resolution strategy, in decreasing precision:
//
//   - static calls — a direct call of a declared function or a method on a
//     concrete receiver resolves to exactly that function;
//   - interface dispatch — a call through an interface method fans out to
//     the matching method of every concrete named type in the module whose
//     method set satisfies the interface (class-hierarchy analysis). The
//     module's types are a closed world for this purpose; implementations
//     living outside the analyzed module are invisible;
//   - function and method values — referencing a declared function or a
//     method as a value (handler registration, comparator capture) adds an
//     edge from the referencing function, because the value may be called
//     anywhere it flows.
//
// Function literals have no types.Func object and therefore no node of
// their own: a literal's body is attributed to the declared function that
// lexically contains it, which is exactly what a reachability client wants
// (the literal runs on the hot path iff its definer put it there).
package callgraph

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Unit is one type-checked package included in the graph.
type Unit struct {
	// Path is the package's import path.
	Path string
	// Files are the package's parsed source files.
	Files []*ast.File
	// Types and Info are the go/types results for the package.
	Types *types.Package
	Info  *types.Info
}

// EdgeKind classifies how a call edge was resolved.
type EdgeKind int

const (
	// Static is a direct call of a declared function or concrete method.
	Static EdgeKind = iota
	// Interface is a dynamic dispatch through an interface method, resolved
	// against every satisfying concrete type in the module.
	Interface
	// FuncValue is a reference to a function or method as a value; the
	// target may run wherever the value flows.
	FuncValue
)

// String returns the kind's display name.
func (k EdgeKind) String() string {
	switch k {
	case Static:
		return "static"
	case Interface:
		return "interface"
	case FuncValue:
		return "funcvalue"
	default:
		return fmt.Sprintf("EdgeKind(%d)", int(k))
	}
}

// Edge is one resolved call (or value reference) from a caller to a callee.
type Edge struct {
	Callee *types.Func
	Kind   EdgeKind
	// Pos is the first site that produced this (callee, kind) pair.
	Pos token.Pos
}

// Node is one declared function with its body and defining unit.
type Node struct {
	Func *types.Func
	Decl *ast.FuncDecl
	Unit *Unit
	// Out holds the node's outgoing edges, deduplicated per (callee, kind)
	// and sorted deterministically.
	Out []Edge
}

// Graph is the module's call graph. Nodes exist only for functions declared
// with a body inside the analyzed units; edges to undeclared targets
// (standard-library functions) are omitted.
type Graph struct {
	nodes map[*types.Func]*Node
	// Init holds the edges out of package-level variable initializers.
	// They run before main and belong to no declared function, so they
	// are the graph's one set of edges without a caller node.
	Init []Edge
}

// Node returns the graph node for fn (normalizing generic instantiations to
// their origin declaration), or nil when fn has no body in the module.
func (g *Graph) Node(fn *types.Func) *Node {
	if fn == nil {
		return nil
	}
	return g.nodes[fn.Origin()]
}

// Funcs returns every declared function in the graph, sorted by FuncString.
func (g *Graph) Funcs() []*types.Func {
	out := make([]*types.Func, 0, len(g.nodes))
	//lint:ignore maprange collecting map keys into a slice that is sorted immediately below
	for fn := range g.nodes {
		out = append(out, fn)
	}
	sort.Slice(out, func(i, j int) bool { return FuncString(out[i]) < FuncString(out[j]) })
	return out
}

// Reachable walks the graph from roots and returns, for every reachable
// declared function, the root it was first reached from (roots map to
// themselves). Functions in skip — and everything reachable only through
// them — are excluded: lint uses this for //lint:coldpath pruning.
func (g *Graph) Reachable(roots []*types.Func, skip map[*types.Func]bool) map[*types.Func]*types.Func {
	reach := make(map[*types.Func]*types.Func)
	var queue []*types.Func
	for _, r := range roots {
		r = r.Origin()
		if g.nodes[r] == nil || skip[r] || reach[r] != nil {
			continue
		}
		reach[r] = r
		queue = append(queue, r)
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		root := reach[fn]
		for _, e := range g.nodes[fn].Out {
			callee := e.Callee.Origin()
			if g.nodes[callee] == nil || skip[callee] || reach[callee] != nil {
				continue
			}
			reach[callee] = root
			queue = append(queue, callee)
		}
	}
	return reach
}

// FuncString renders fn unambiguously for output and golden files:
// "pkgpath.Name" for functions, "pkgpath.(Recv).Name" or
// "pkgpath.(*Recv).Name" for methods.
func FuncString(fn *types.Func) string {
	var sb strings.Builder
	if pkg := fn.Pkg(); pkg != nil {
		sb.WriteString(pkg.Path())
		sb.WriteByte('.')
	}
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		star := ""
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
			star = "*"
		}
		name := types.TypeString(t, func(*types.Package) string { return "" })
		if named, ok := t.(*types.Named); ok {
			name = named.Obj().Name()
		}
		fmt.Fprintf(&sb, "(%s%s).", star, name)
	}
	sb.WriteString(fn.Name())
	return sb.String()
}

// Build constructs the call graph over units. Units must be fully
// type-checked; intra-module imports must resolve to the same *types.Package
// values across units (internal/lint's loader guarantees this).
func Build(units []*Unit) *Graph {
	b := &builder{
		graph: &Graph{nodes: make(map[*types.Func]*Node)},
	}
	// Pass 1: a node per declared function with a body.
	for _, u := range units {
		for _, f := range u.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := u.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				b.graph.nodes[obj] = &Node{Func: obj, Decl: fd, Unit: u}
			}
		}
	}
	// Pass 2: the closed world of concrete named types, for interface
	// dispatch. Scope.Names() is sorted, so the candidate order — and with
	// it every edge list — is deterministic.
	for _, u := range units {
		scope := u.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) || named.TypeParams().Len() > 0 {
				continue
			}
			b.concrete = append(b.concrete, named)
		}
	}
	// Pass 3: edges, then the package-level initializers' edges.
	for _, fn := range b.graph.Funcs() {
		node := b.graph.nodes[fn]
		node.Out = b.edges(node.Unit.Info, []ast.Node{node.Decl})
	}
	for _, u := range units {
		var specs []ast.Node
		for _, f := range u.Files {
			for _, d := range f.Decls {
				if gd, ok := d.(*ast.GenDecl); ok && gd.Tok == token.VAR {
					for _, spec := range gd.Specs {
						specs = append(specs, spec)
					}
				}
			}
		}
		b.graph.Init = append(b.graph.Init, b.edges(u.Info, specs)...)
	}
	return b.graph
}

type builder struct {
	graph    *Graph
	concrete []*types.Named
}

// edges extracts every outgoing edge of the syntax in roots, deduplicated
// per (callee, kind) and sorted.
func (b *builder) edges(info *types.Info, roots []ast.Node) []Edge {
	var out []Edge
	seen := map[Edge]bool{} // keyed with Pos zeroed for (callee, kind) dedup
	add := func(callee *types.Func, kind EdgeKind, pos token.Pos) {
		if callee == nil {
			return
		}
		callee = callee.Origin()
		if b.graph.nodes[callee] == nil {
			return // no body in the module (stdlib, interface declaration)
		}
		key := Edge{Callee: callee, Kind: kind}
		if seen[key] {
			return
		}
		seen[key] = true
		out = append(out, Edge{Callee: callee, Kind: kind, Pos: pos})
	}

	// consumed marks identifiers already handled as the operator of a call,
	// so the function-value sweep below does not double-count them.
	consumed := map[*ast.Ident]bool{}

	visit := func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			b.callEdges(info, n, add, consumed)
		case *ast.SelectorExpr:
			if consumed[n.Sel] {
				return true
			}
			if sel, ok := info.Selections[n]; ok {
				if sel.Kind() != types.MethodVal && sel.Kind() != types.MethodExpr {
					return true // field selection
				}
				consumed[n.Sel] = true
				m, _ := sel.Obj().(*types.Func)
				if m == nil {
					return true
				}
				if types.IsInterface(sel.Recv()) {
					b.interfaceEdges(sel.Recv(), m, FuncValue, n.Pos(), add)
				} else {
					add(m, FuncValue, n.Pos())
				}
				return true
			}
			if fn, ok := info.Uses[n.Sel].(*types.Func); ok {
				// Package-qualified function referenced as a value.
				consumed[n.Sel] = true
				add(fn, FuncValue, n.Pos())
			}
		case *ast.Ident:
			if consumed[n] {
				return true
			}
			if fn, ok := info.Uses[n].(*types.Func); ok {
				consumed[n] = true
				add(fn, FuncValue, n.Pos())
			}
		}
		return true
	}
	for _, n := range roots {
		ast.Inspect(n, visit)
	}

	sort.Slice(out, func(i, j int) bool {
		a, c := out[i], out[j]
		if sa, sc := FuncString(a.Callee), FuncString(c.Callee); sa != sc {
			return sa < sc
		}
		return a.Kind < c.Kind
	})
	return out
}

// callEdges resolves one call expression.
func (b *builder) callEdges(info *types.Info, call *ast.CallExpr, add func(*types.Func, EdgeKind, token.Pos), consumed map[*ast.Ident]bool) {
	fun := ast.Unparen(call.Fun)
	// Generic instantiation: f[T](...) or x.m[T](...).
	switch idx := fun.(type) {
	case *ast.IndexExpr:
		fun = ast.Unparen(idx.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(idx.X)
	}
	switch f := fun.(type) {
	case *ast.Ident:
		consumed[f] = true
		if fn, ok := info.Uses[f].(*types.Func); ok {
			add(fn, Static, call.Pos())
		}
	case *ast.SelectorExpr:
		consumed[f.Sel] = true
		if sel, ok := info.Selections[f]; ok {
			m, _ := sel.Obj().(*types.Func)
			if m == nil {
				return // func-typed field: value call, target unknown
			}
			if sel.Kind() == types.MethodVal && types.IsInterface(sel.Recv()) {
				b.interfaceEdges(sel.Recv(), m, Interface, call.Pos(), add)
				return
			}
			add(m, Static, call.Pos())
			return
		}
		// Package-qualified call: pkg.Fn(...).
		if fn, ok := info.Uses[f.Sel].(*types.Func); ok {
			add(fn, Static, call.Pos())
		}
	}
}

// interfaceEdges fans a dispatch through interface method m out to the
// matching method of every satisfying concrete type in the module.
func (b *builder) interfaceEdges(recv types.Type, m *types.Func, kind EdgeKind, pos token.Pos, add func(*types.Func, EdgeKind, token.Pos)) {
	iface, ok := recv.Underlying().(*types.Interface)
	if !ok {
		return
	}
	for _, named := range b.concrete {
		var impl types.Type = named
		if !types.Implements(impl, iface) {
			ptr := types.NewPointer(named)
			if !types.Implements(ptr, iface) {
				continue
			}
			impl = ptr
		}
		ms := types.NewMethodSet(impl)
		for i := 0; i < ms.Len(); i++ {
			mf, ok := ms.At(i).Obj().(*types.Func)
			if ok && mf.Id() == m.Id() {
				add(mf, kind, pos)
				break
			}
		}
	}
}
