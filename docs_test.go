package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
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
