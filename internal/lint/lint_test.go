package lint

import (
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// unscoped returns the analyzer suite with package scoping cleared, so the
// corpus (module path "corpus", which matches no repo scope fragment)
// exercises every analyzer's detection logic.
func unscoped() []*Analyzer {
	as := Suite()
	for _, a := range as {
		a.Include, a.Exclude = nil, nil
	}
	return as
}

func loadCorpus(t *testing.T) (*token.FileSet, []*Package) {
	t.Helper()
	fset, pkgs, err := LoadModule(filepath.Join("testdata", "corpus"))
	if err != nil {
		t.Fatalf("loading corpus: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("corpus loaded zero packages")
	}
	return fset, pkgs
}

// key normalizes a finding to "file:line analyzer" for comparison against
// the corpus' // want markers.
func key(file string, line int, analyzer string) string {
	return fmt.Sprintf("%s:%d %s", filepath.Base(file), line, analyzer)
}

// TestCorpus asserts hits and misses exactly: every line marked
// "// want <analyzer>" produces a finding from that analyzer, and no
// unmarked line produces anything. The suppress package seeds violations
// under //lint:ignore directives, so silence there is part of the
// assertion.
func TestCorpus(t *testing.T) {
	fset, pkgs := loadCorpus(t)
	diags := Run(fset, pkgs, unscoped())
	checkWants(t, fset, pkgs, diags)

	// The acceptance bar: at least five distinct analyzers each catch a
	// seeded violation.
	gotAnalyzers := map[string]bool{}
	for _, d := range diags {
		gotAnalyzers[d.Analyzer] = true
	}
	if len(gotAnalyzers) < 5 {
		t.Errorf("only %d distinct analyzers fired (%v); want >= 5", len(gotAnalyzers), gotAnalyzers)
	}
}

// checkWants compares diags with the "// want <analyzer>" markers in pkgs'
// comments, in both directions.
func checkWants(t *testing.T, fset *token.FileSet, pkgs []*Package, diags []Diagnostic) {
	t.Helper()
	got := map[string]bool{}
	for _, d := range diags {
		got[key(d.Pos.Filename, d.Pos.Line, d.Analyzer)] = true
	}

	want := map[string]bool{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
					rest, ok := strings.CutPrefix(text, "want ")
					if !ok {
						continue
					}
					pos := fset.Position(c.Pos())
					for _, name := range strings.Fields(rest) {
						want[key(pos.Filename, pos.Line, name)] = true
					}
				}
			}
		}
	}

	var missing, unexpected []string
	for k := range want {
		if !got[k] {
			missing = append(missing, k)
		}
	}
	for k := range got {
		if !want[k] {
			unexpected = append(unexpected, k)
		}
	}
	sort.Strings(missing)
	sort.Strings(unexpected)
	if len(missing) > 0 {
		t.Errorf("expected findings not produced:\n  %s", strings.Join(missing, "\n  "))
	}
	if len(unexpected) > 0 {
		t.Errorf("unexpected findings:\n  %s", strings.Join(unexpected, "\n  "))
	}
}

// TestRunIsDeterministic guards the engine against its own medicine: two
// runs over the same corpus must produce byte-identical output.
func TestRunIsDeterministic(t *testing.T) {
	fset, pkgs := loadCorpus(t)
	render := func() string {
		var sb strings.Builder
		for _, d := range Run(fset, pkgs, unscoped()) {
			sb.WriteString(d.String())
			sb.WriteByte('\n')
		}
		return sb.String()
	}
	first := render()
	for i := 0; i < 5; i++ {
		if again := render(); again != first {
			t.Fatalf("run %d differs:\n%s\n---\n%s", i+2, first, again)
		}
	}
}

func TestScopeMatching(t *testing.T) {
	a := &Analyzer{Name: "x", Include: []string{"internal/sim", "internal/core"}}
	for path, want := range map[string]bool{
		"repro/internal/sim":       true,
		"repro/internal/core":      true,
		"repro/internal/simulated": true, // substring semantics, by design
		"repro/internal/txn":       false,
		"repro/cmd/asetssim":       false,
	} {
		if got := a.applies(path); got != want {
			t.Errorf("Include applies(%q) = %v, want %v", path, got, want)
		}
	}
	b := &Analyzer{Name: "y", Exclude: []string{"cmd/", "examples/"}}
	for path, want := range map[string]bool{
		"repro/internal/server":   true,
		"repro/cmd/asetsweb":      false,
		"repro/examples/webfarm":  false,
		"repro/internal/executor": true,
	} {
		if got := b.applies(path); got != want {
			t.Errorf("Exclude applies(%q) = %v, want %v", path, got, want)
		}
	}
}

// writeModule materializes a throwaway module for directive tests.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	files["go.mod"] = "module tmpmod\n\ngo 1.22\n"
	for name, content := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestMalformedDirective: an ignore without a reason is inert (the finding
// survives) and is itself reported.
func TestMalformedDirective(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"a/a.go": `package a

//lint:ignore maprange
func F(m map[int]int) int {
	n := 0
	for range m {
		n++
	}
	return n
}
`,
	})
	fset, pkgs, err := LoadModule(dir)
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(fset, pkgs, unscoped())
	byAnalyzer := map[string]int{}
	for _, d := range diags {
		byAnalyzer[d.Analyzer]++
	}
	if byAnalyzer["maprange"] != 1 {
		t.Errorf("maprange findings = %d, want 1 (malformed directive must not suppress)", byAnalyzer["maprange"])
	}
	if byAnalyzer["directive"] != 1 {
		t.Errorf("directive findings = %d, want 1 (missing reason must be reported)", byAnalyzer["directive"])
	}
}

// TestFileIgnore: //lint:file-ignore silences the analyzer for the whole
// file but nothing else.
func TestFileIgnore(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"a/a.go": `//lint:file-ignore maprange generated lookup tables; order provably irrelevant
package a

func F(m map[int]int) int {
	n := 0
	for range m {
		n++
	}
	for k := range m {
		n += k
	}
	return n
}
`,
		"b/b.go": `package b

func G(m map[int]int) int {
	for k := range m {
		return k
	}
	return 0
}
`,
	})
	fset, pkgs, err := LoadModule(dir)
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(fset, pkgs, unscoped())
	if len(diags) != 1 || diags[0].Analyzer != "maprange" || filepath.Base(diags[0].Pos.Filename) != "b.go" {
		t.Fatalf("diagnostics = %v, want exactly one maprange finding in b.go", diags)
	}
}

// TestLoadModuleSkipsTestsAndTestdata: the loader must not descend into
// nested modules or testdata, and must ignore _test.go files.
func TestLoadModuleSkipsTestsAndTestdata(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"a/a.go":            "package a\n\n// F is fine.\nfunc F() {}\n",
		"a/a_test.go":       "package a\n\nimport \"testing\"\n\nfunc TestF(t *testing.T) { F() }\n",
		"a/testdata/bad.go": "package broken syntax here",
		"nested/go.mod":     "module nested\n\ngo 1.22\n",
		"nested/x.go":       "package x\n\nimport \"does/not/exist\"\n\nvar _ = exist.X\n",
	})
	fset, pkgs, err := LoadModule(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 || pkgs[0].Path != "tmpmod/a" {
		t.Fatalf("packages = %v, want exactly tmpmod/a", pkgs)
	}
	if got := len(pkgs[0].Files); got != 1 {
		t.Fatalf("tmpmod/a has %d files, want 1 (test file must be skipped)", got)
	}
	_ = fset
}
