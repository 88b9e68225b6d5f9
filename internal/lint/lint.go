// Package lint is a from-scratch static-analysis engine for this
// repository, built only on the standard library's go/ast, go/parser,
// go/types and go/token packages (no golang.org/x/tools dependency, keeping
// the repo's stdlib-only promise).
//
// The engine exists to *enforce* the determinism policy the simulator's
// correctness rests on: the paper's evaluation (Section IV) depends on
// bit-for-bit reproducible discrete-event runs, which is why the repo ships
// its own seeded RNG (internal/rng) instead of math/rand. Reproducibility
// claims are only as strong as their weakest wall-clock read or map
// iteration, so every analyzer here targets a concrete way nondeterminism or
// ordering bugs have crept (or could creep) into scheduling code:
//
//	nondeterminism            wall-clock and unseeded-randomness calls in
//	                          simulation/decision packages
//	maprange                  range over a map in a scheduler/simulator
//	                          decision path
//	floatcmp                  exact ==/!= on float64 deadlines and slacks
//	goroutine-hygiene         goroutines launched without a visible join
//	exhaustive-policy-switch  switches over repo enums that silently ignore
//	                          constants
//	hotpath-alloc             allocation idioms anywhere reachable in the
//	                          call graph from a //lint:hotpath root
//	                          (whole-program; internal/lint/callgraph)
//	lockguard                 `// guarded by <mu>` fields accessed without
//	                          the mutex held
//	atomiccheck               plain access to variables elsewhere accessed
//	                          through sync/atomic (whole-program)
//	testonly                  functions no program reaches, only tests
//	                          (whole-program; //lint:testonly marks test
//	                          support)
//
// Findings can be suppressed per line with a justified directive:
//
//	//lint:ignore <analyzer>[,<analyzer>...] <reason>
//
// placed at the end of the offending line or on the line directly above it,
// or per file with //lint:file-ignore. A directive without a reason is
// itself reported. docs/DETERMINISM.md states the policy; cmd/asetslint is
// the command-line driver.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Diagnostic is one finding: a position, the analyzer that produced it, and
// a human-readable message. The driver prints it as
// "file:line:col: analyzer: message".
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the diagnostic in the driver's output format.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzer is one named check. Run is invoked once per in-scope package and
// reports findings through the Pass.
type Analyzer struct {
	// Name identifies the analyzer in output and in //lint:ignore
	// directives.
	Name string
	// Doc is a one-paragraph description shown by asetslint -list.
	Doc string
	// Include restricts the analyzer to packages whose import path contains
	// at least one of these substrings. Empty means every package.
	Include []string
	// Exclude skips packages whose import path contains any of these
	// substrings, after Include matching.
	Exclude []string
	// Run inspects one package. Exactly one of Run and RunModule is set.
	Run func(*Pass)
	// RunModule inspects the whole module at once. Whole-program analyzers
	// (hotpath-alloc's call-graph reachability, atomiccheck's cross-package
	// field census) set this instead of Run; Include/Exclude do not apply —
	// such analyzers are driven by source annotations, not path scopes.
	RunModule func(*ModulePass)
}

// applies reports whether the analyzer runs on the package with the given
// import path.
func (a *Analyzer) applies(pkgPath string) bool {
	if len(a.Include) > 0 {
		ok := false
		for _, frag := range a.Include {
			if strings.Contains(pkgPath, frag) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	for _, frag := range a.Exclude {
		if strings.Contains(pkgPath, frag) {
			return false
		}
	}
	return true
}

// Pass carries one (analyzer, package) unit of work.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkg      *Package

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ModulePass carries one whole-module unit of work: the analyzer sees every
// package at once, so it can build a call graph or collect cross-package
// facts before reporting.
type ModulePass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkgs     []*Package
	// Readers are the packages of nested modules built against this one
	// (Package.Reader). They are facts to read, never places to report.
	Readers []*Package

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Suite returns the repository's analyzer battery with its package scopes
// configured. The scopes implement the determinism policy of
// docs/DETERMINISM.md: simulation and decision packages must be
// reproducible; cmd binaries and examples are allowed wall-clock,
// fire-and-forget behaviour.
func Suite() []*Analyzer {
	nd := Nondeterminism()
	nd.Include = []string{"internal/"}
	mr := MapRange()
	mr.Include = []string{"internal/"}
	fc := FloatCmp()
	fc.Include = []string{
		"internal/core", "internal/sched", "internal/sim",
		"internal/txn", "internal/executor", "internal/cluster",
		"internal/contention", "internal/slo",
	}
	gh := GoroutineHygiene()
	gh.Exclude = []string{"cmd/", "examples/"}
	ex := ExhaustiveSwitch()
	// The whole-program analyzers are annotation-driven (//lint:hotpath
	// roots, `// guarded by` fields, sync/atomic usage) and need no path
	// scope: without annotations they are silent.
	hp := HotPathAlloc()
	lg := LockGuard()
	ac := AtomicCheck()
	to := TestOnly()
	return []*Analyzer{nd, mr, fc, gh, ex, hp, lg, ac, to}
}

// Run applies each analyzer to every package in its scope, filters
// suppressed findings, and returns the remainder sorted by position. The
// ordering is total (position, then analyzer, then message), so output is
// deterministic regardless of analyzer-internal map iteration.
func Run(fset *token.FileSet, loaded []*Package, analyzers []*Analyzer) []Diagnostic {
	var pkgs, readers []*Package
	for _, pkg := range loaded {
		if pkg.Reader {
			readers = append(readers, pkg)
		} else {
			pkgs = append(pkgs, pkg)
		}
	}
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if a.Run == nil || !a.applies(pkg.Path) {
				continue
			}
			pass := &Pass{Analyzer: a, Fset: fset, Pkg: pkg, diags: &diags}
			a.Run(pass)
		}
	}
	for _, a := range analyzers {
		if a.RunModule == nil {
			continue
		}
		a.RunModule(&ModulePass{Analyzer: a, Fset: fset, Pkgs: pkgs, Readers: readers, diags: &diags})
	}
	for _, pkg := range pkgs {
		diags = append(diags, checkDirectives(fset, pkg)...)
	}
	diags = filterIgnored(fset, pkgs, diags)
	sort.Slice(diags, func(i, j int) bool {
		di, dj := diags[i], diags[j]
		if di.Pos.Filename != dj.Pos.Filename {
			return di.Pos.Filename < dj.Pos.Filename
		}
		if di.Pos.Line != dj.Pos.Line {
			return di.Pos.Line < dj.Pos.Line
		}
		if di.Pos.Column != dj.Pos.Column {
			return di.Pos.Column < dj.Pos.Column
		}
		if di.Analyzer != dj.Analyzer {
			return di.Analyzer < dj.Analyzer
		}
		return di.Message < dj.Message
	})
	return diags
}

// enclosingFuncLits returns the source ranges of every function literal in
// f. Analyzers use it to exempt comparator closures (sort.Slice, pq.NewHeap)
// whose exact comparisons are deliberate tie-breaking.
func enclosingFuncLits(f *ast.File) [][2]token.Pos {
	var spans [][2]token.Pos
	ast.Inspect(f, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			spans = append(spans, [2]token.Pos{lit.Pos(), lit.End()})
		}
		return true
	})
	return spans
}

func inAnySpan(pos token.Pos, spans [][2]token.Pos) bool {
	for _, s := range spans {
		if s[0] <= pos && pos < s[1] {
			return true
		}
	}
	return false
}
