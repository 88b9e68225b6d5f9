package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/obs"
)

// citedTest matches a Go test name in prose; a trailing * cites a prefix.
var citedTest = regexp.MustCompile(`\bTest[A-Z0-9_][A-Za-z0-9_]*\*?`)

// TestDocsCiteExistingTests: every Test… name cited in README.md, DESIGN.md
// and docs/*.md is a test function somewhere in the repository (a trailing
// * matches any test with that prefix), so a renamed or deleted test cannot
// leave its documentation pointing at nothing.
func TestDocsCiteExistingTests(t *testing.T) {
	tests := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if name := declName(decl); strings.HasPrefix(name, "Test") {
				tests[name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range append([]string{"README.md", "DESIGN.md"}, docs...) {
		body, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, cite := range citedTest.FindAllString(string(body), -1) {
			if !cited(tests, cite) {
				t.Errorf("%s cites %s, which is not a test in the repository", doc, cite)
			}
		}
	}
}

// cited reports whether cite names a test, or prefixes one when it ends in *.
func cited(tests map[string]bool, cite string) bool {
	prefix, ok := strings.CutSuffix(cite, "*")
	if !ok {
		return tests[cite]
	}
	for name := range tests {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return false
}

// declName is the name of a top-level function declaration, or "".
func declName(decl ast.Decl) string {
	if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
		return fn.Name.Name
	}
	return ""
}

// hotpathRoot matches a fully qualified function name cited in prose:
// `pkg.Func` or `pkg.(*Type).Method`.
var hotpathRoot = regexp.MustCompile("`([a-z]+\\.(?:\\(\\*?[A-Za-z]\\w*\\)\\.[A-Za-z]\\w*|[A-Z]\\w*))`")

// TestDocsHotpathRoots: the hotpath-alloc paragraph of docs/DETERMINISM.md
// names every function whose doc comment carries //lint:hotpath outside
// tests, and names nothing else, so the documented allocation-free zones
// cannot drift from the ones the linter enforces.
func TestDocsHotpathRoots(t *testing.T) {
	body, err := os.ReadFile("docs/DETERMINISM.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(body)
	start := strings.Index(doc, "* **hotpath-alloc**")
	end := strings.Index(doc, "* **lockguard**")
	if start < 0 || end < start {
		t.Fatal("docs/DETERMINISM.md: hotpath-alloc paragraph not found")
	}
	named := map[string]bool{}
	for _, m := range hotpathRoot.FindAllStringSubmatch(doc[start:end], -1) {
		named[m[1]] = true
	}

	marked := map[string]string{} // root name -> file
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && hasHotpathMarker(fn) {
				marked[f.Name.Name+"."+funcDeclName(fn)] = path
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range sortedKeys(marked) {
		if !named[name] {
			t.Errorf("%s: %s is marked //lint:hotpath but docs/DETERMINISM.md does not name it", marked[name], name)
		}
	}
	for _, name := range sortedKeys(named) {
		if _, ok := marked[name]; !ok {
			t.Errorf("docs/DETERMINISM.md names hotpath root %s, which carries no //lint:hotpath marker", name)
		}
	}
}

// TestDocsListEveryCounter: every counter of the obs kind table, and the
// lost counter, is named in docs/OBSERVABILITY.md.
func TestDocsListEveryCounter(t *testing.T) {
	body, err := os.ReadFile("docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	names := []string{obs.LostCounter}
	for k := 0; k < obs.NumKinds; k++ {
		if name := obs.Kind(k).Counter(); name != "" {
			names = append(names, name)
		}
	}
	if len(names) < 2 {
		t.Fatal("the kind table names no counter")
	}
	for _, name := range names {
		if !strings.Contains(string(body), "`"+name+"`") {
			t.Errorf("docs/OBSERVABILITY.md does not name the counter %s", name)
		}
	}
}

// hasHotpathMarker reports whether fn's doc comment carries the
// //lint:hotpath marker, read the way the hotpath-alloc analyzer reads it.
func hasHotpathMarker(fn *ast.FuncDecl) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if text == "lint:hotpath" || strings.HasPrefix(text, "lint:hotpath ") {
			return true
		}
	}
	return false
}

// funcDeclName renders a declaration as Func or (*Type).Method.
func funcDeclName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	recv := fn.Recv.List[0].Type
	star := ""
	if p, ok := recv.(*ast.StarExpr); ok {
		star, recv = "*", p.X
	}
	id, _ := recv.(*ast.Ident)
	if id == nil {
		return fn.Name.Name
	}
	return "(" + star + id.Name + ")." + fn.Name.Name
}

// sortedKeys returns m's keys in ascending order, so failures list stably.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
