package lint

import (
	"path/filepath"
	"testing"
)

// TestTestOnlyCorpus runs the whole suite over testdata/corpus/testonly, a
// module of its own with a package main, a root package and a nested reader
// module (bench/). Its // want markers pin each case of the testonly rule:
// a function only tests call and what only it reaches are findings; a
// method reached only through a module interface, String and MarshalJSON,
// a function referenced only from a package-level initializer, a marked
// helper and what it reaches, the root package's API and what the reader
// module calls are not; a mark without a reason and a mark on a function a
// program reaches are findings. Nothing is reported in the reader module,
// whose map range and dead function would otherwise be findings.
func TestTestOnlyCorpus(t *testing.T) {
	fset, pkgs, err := LoadModule(filepath.Join("testdata", "corpus", "testonly"))
	if err != nil {
		t.Fatal(err)
	}
	readers := 0
	for _, pkg := range pkgs {
		if pkg.Reader {
			readers++
			if pkg.Path != "tomod/bench" || pkg.Module != "tomod/bench" {
				t.Errorf("reader package %s of module %s, want tomod/bench", pkg.Path, pkg.Module)
			}
		}
	}
	if readers != 1 {
		t.Fatalf("%d reader packages, want 1 (the nested bench module)", readers)
	}
	checkWants(t, fset, pkgs, Run(fset, pkgs, unscoped()))
}

// TestTestOnlySilentWithoutPrograms: a module with neither a package main
// nor a root package has no roots, so nothing in it is reported.
func TestTestOnlySilentWithoutPrograms(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"a/a.go": "package a\n\n// F is called by nothing.\nfunc F() {}\n",
	})
	fset, pkgs, err := LoadModule(dir)
	if err != nil {
		t.Fatal(err)
	}
	if diags := Run(fset, pkgs, []*Analyzer{TestOnly()}); len(diags) != 0 {
		t.Fatalf("diagnostics = %v, want none", diags)
	}
}
