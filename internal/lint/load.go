package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package of the module under analysis.
type Package struct {
	// Path is the import path (module path + relative directory).
	Path string
	// Dir is the absolute directory the files came from.
	Dir string
	// Files are the parsed non-test source files, sorted by file name.
	Files []*ast.File
	// Types and Info hold the go/types results for the package.
	Types *types.Package
	Info  *types.Info
	// Module is the module path the package belongs to.
	Module string
	// Reader marks a package of a nested module that builds against this
	// one through a replace directive (perfbench/). Analyzers may read it
	// for facts, as testonly takes its calls as roots, but report nothing
	// in it.
	Reader bool
}

// LoadModule parses and type-checks every non-test package under root,
// which must contain a go.mod. Intra-module imports resolve against the
// freshly checked packages; all other imports (the standard library) resolve
// through the stdlib source importer, so the loader needs nothing beyond a
// GOROOT with source — no export data, no network, no x/tools.
//
// Directories named testdata or vendor, hidden directories, and nested
// modules (subdirectories with their own go.mod) are skipped, matching the
// go tool's ./... semantics. The one exception is a nested module whose
// go.mod replaces this module with the root directory: it builds against
// exactly these packages, so its packages are loaded too, marked Reader.
// Test files are excluded: the determinism policy targets production code,
// and tests legitimately use wall-clock timeouts.
func LoadModule(root string) (*token.FileSet, []*Package, error) {
	absRoot, err := filepath.Abs(root)
	if err != nil {
		return nil, nil, err
	}
	modPath, err := modulePath(filepath.Join(absRoot, "go.mod"))
	if err != nil {
		return nil, nil, err
	}

	fset := token.NewFileSet()
	ld := &loader{
		fset:    fset,
		root:    absRoot,
		module:  modPath,
		dirs:    map[string]string{},
		modOf:   map[string]string{},
		built:   map[string]*Package{},
		loading: map[string]bool{},
	}
	ld.fallback = importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)

	if err := ld.discover(absRoot, modPath); err != nil {
		return nil, nil, err
	}
	paths := make([]string, 0, len(ld.dirs))
	//lint:ignore maprange collected import paths are sorted immediately below
	for p := range ld.dirs {
		paths = append(paths, p)
	}
	sort.Strings(paths)

	pkgs := make([]*Package, 0, len(paths))
	for _, p := range paths {
		pkg, err := ld.load(p)
		if err != nil {
			return nil, nil, err
		}
		if pkg != nil {
			pkgs = append(pkgs, pkg)
		}
	}
	// load() may have been entered recursively; return module order, not
	// completion order.
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return fset, pkgs, nil
}

// modulePath extracts the module declaration from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("lint: reading %s: %w", gomod, err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(strings.Trim(rest, `"`)), nil
		}
	}
	return "", fmt.Errorf("lint: no module declaration in %s", gomod)
}

// loader walks, parses and type-checks the module, memoizing per package.
type loader struct {
	fset     *token.FileSet
	root     string
	module   string
	dirs     map[string]string // import path -> directory
	modOf    map[string]string // import path -> module path
	built    map[string]*Package
	loading  map[string]bool // cycle guard
	fallback types.ImporterFrom
}

// discover records every directory under modDir, the root of module
// modPath, that holds at least one non-test .go file, and descends into the
// nested modules that replace the root module with the root directory.
func (ld *loader) discover(modDir, modPath string) error {
	return filepath.WalkDir(modDir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != modDir {
			if name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				if nested, ok := ld.replacesRoot(path); ok && modDir == ld.root {
					if err := ld.discover(path, nested); err != nil {
						return err
					}
				}
				return filepath.SkipDir
			}
		}
		ents, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range ents {
			n := e.Name()
			if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
				continue
			}
			rel, err := filepath.Rel(modDir, path)
			if err != nil {
				return err
			}
			imp := modPath
			if rel != "." {
				imp = modPath + "/" + filepath.ToSlash(rel)
			}
			ld.dirs[imp] = path
			ld.modOf[imp] = modPath
			break
		}
		return nil
	})
}

// replacesRoot reports whether the nested module in dir replaces the root
// module with the root directory, and returns the nested module's path.
func (ld *loader) replacesRoot(dir string) (string, bool) {
	gomod := filepath.Join(dir, "go.mod")
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", false
	}
	for _, line := range strings.Split(string(data), "\n") {
		// Both "replace old => new" and a line of a replace ( ... ) block.
		line = strings.TrimPrefix(strings.TrimSpace(line), "replace")
		from, to, ok := strings.Cut(line, "=>")
		if !ok {
			continue
		}
		old, target := strings.Fields(from), strings.Fields(to)
		if len(old) == 0 || old[0] != ld.module || len(target) != 1 || !strings.HasPrefix(target[0], ".") {
			continue
		}
		if filepath.Join(dir, target[0]) == ld.root {
			modPath, err := modulePath(gomod)
			return modPath, err == nil
		}
	}
	return "", false
}

// load parses and type-checks one module package (memoized).
func (ld *loader) load(path string) (*Package, error) {
	if pkg, ok := ld.built[path]; ok {
		return pkg, nil
	}
	if ld.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	ld.loading[path] = true
	defer delete(ld.loading, path)

	dir := ld.dirs[path]
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(ld.fset, filepath.Join(dir, n), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: ld}
	tpkg, err := conf.Check(path, ld.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	pkg := &Package{
		Path:   path,
		Dir:    dir,
		Files:  files,
		Types:  tpkg,
		Info:   info,
		Module: ld.modOf[path],
		Reader: ld.modOf[path] != ld.module,
	}
	ld.built[path] = pkg
	return pkg, nil
}

// Import implements types.Importer.
func (ld *loader) Import(path string) (*types.Package, error) {
	return ld.ImportFrom(path, "", 0)
}

// ImportFrom implements types.ImporterFrom: module-internal paths resolve
// through the loader itself, everything else through the stdlib source
// importer.
func (ld *loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if _, ok := ld.dirs[path]; ok || path == ld.module || strings.HasPrefix(path, ld.module+"/") {
		if _, ok := ld.dirs[path]; !ok {
			return nil, fmt.Errorf("lint: module package %s not found under %s", path, ld.root)
		}
		pkg, err := ld.load(path)
		if err != nil {
			return nil, err
		}
		if pkg == nil {
			return nil, fmt.Errorf("lint: module package %s has no Go files", path)
		}
		return pkg.Types, nil
	}
	return ld.fallback.ImportFrom(path, dir, mode)
}
