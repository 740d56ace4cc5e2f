// Package load type-checks Go packages for the zbpcheck analyzer suite
// without consulting a module proxy or build cache: module packages are
// resolved by path mapping under the module root, vendored dependencies
// under vendor/, and standard-library imports straight from GOROOT
// source (with cgo disabled so every package has a pure-Go file set).
// Dependencies are checked with IgnoreFuncBodies — only the packages
// under analysis pay for full syntax and type information.
//
// This is deliberately a small, self-contained stand-in for
// golang.org/x/tools/go/packages, which cannot be used offline; see
// docs/STATIC_ANALYSIS.md.
package load

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one fully type-checked package ready for analysis.
type Package struct {
	PkgPath   string
	Dir       string
	Fset      *token.FileSet
	Syntax    []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
	TypeSizes types.Sizes
}

// Loader resolves and type-checks packages.
type Loader struct {
	// ModuleRoot is the absolute directory of the module being
	// analyzed; ModulePath is its module path from go.mod.
	ModuleRoot string
	ModulePath string
	// ExtraSrcRoots are GOPATH-style src directories (used by the
	// analysistest harness for testdata fixtures); they take priority
	// over GOROOT so fixture stubs can shadow nothing by accident.
	ExtraSrcRoots []string

	ctxt    build.Context
	fset    *token.FileSet
	deps    map[string]*types.Package
	loading map[string]bool
}

// New returns a loader rooted at the module directory.
func New(moduleRoot, modulePath string) *Loader {
	ctxt := build.Default
	// Pure-Go view of every package: with cgo enabled, GoFiles would
	// reference declarations that only exist in cgo-generated code.
	ctxt.CgoEnabled = false
	return &Loader{
		ModuleRoot: moduleRoot,
		ModulePath: modulePath,
		ctxt:       ctxt,
		fset:       token.NewFileSet(),
		deps:       make(map[string]*types.Package),
		loading:    make(map[string]bool),
	}
}

// dirFor maps an import path to the directory holding its source.
func (l *Loader) dirFor(path string) (string, error) {
	if path == l.ModulePath {
		return l.ModuleRoot, nil
	}
	if rest, ok := strings.CutPrefix(path, l.ModulePath+"/"); ok {
		return filepath.Join(l.ModuleRoot, filepath.FromSlash(rest)), nil
	}
	for _, root := range l.ExtraSrcRoots {
		if d := filepath.Join(root, filepath.FromSlash(path)); isDir(d) {
			return d, nil
		}
	}
	if d := filepath.Join(l.ModuleRoot, "vendor", filepath.FromSlash(path)); isDir(d) {
		return d, nil
	}
	if d := filepath.Join(l.ctxt.GOROOT, "src", filepath.FromSlash(path)); isDir(d) {
		return d, nil
	}
	if d := filepath.Join(l.ctxt.GOROOT, "src", "vendor", filepath.FromSlash(path)); isDir(d) {
		return d, nil
	}
	return "", fmt.Errorf("load: cannot resolve import %q", path)
}

func isDir(dir string) bool {
	st, err := os.Stat(dir)
	return err == nil && st.IsDir()
}

// Import type-checks path as a dependency (no function bodies, no
// syntax retained). It implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p, ok := l.deps[path]; ok {
		return p, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("load: import cycle through %q", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir, err := l.dirFor(path)
	if err != nil {
		return nil, err
	}
	files, _, err := l.parseDir(dir, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	conf := types.Config{
		Importer:         l,
		IgnoreFuncBodies: true,
		Error:            func(error) {}, // collect via returned error only
	}
	pkg, err := conf.Check(path, l.fset, files, nil)
	if err != nil {
		return nil, fmt.Errorf("load: typecheck %s: %v", path, err)
	}
	l.deps[path] = pkg
	return pkg, nil
}

// parseDir parses the build-constrained non-test GoFiles of dir.
func (l *Loader) parseDir(dir string, mode parser.Mode) ([]*ast.File, *build.Package, error) {
	bp, err := l.ctxt.ImportDir(dir, 0)
	if err != nil {
		return nil, nil, fmt.Errorf("load: %s: %v", dir, err)
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, mode)
		if err != nil {
			return nil, nil, err
		}
		files = append(files, f)
	}
	return files, bp, nil
}

// LoadTarget fully type-checks the package in dir under the given
// import path, retaining syntax (with comments) and complete type
// information for analysis.
func (l *Loader) LoadTarget(dir, path string) (*Package, error) {
	files, _, err := l.parseDir(dir, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
	sizes := types.SizesFor("gc", l.ctxt.GOARCH)
	conf := types.Config{Importer: l, Sizes: sizes}
	pkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("%v", err)
	}
	return &Package{
		PkgPath:   path,
		Dir:       dir,
		Fset:      l.fset,
		Syntax:    files,
		Types:     pkg,
		TypesInfo: info,
		TypeSizes: sizes,
	}, nil
}

// ModulePackages enumerates every non-test package directory under the
// module root (skipping vendor/, testdata/, hidden and underscore
// directories) and fully type-checks each. Directories with no
// buildable Go files are skipped silently.
func (l *Loader) ModulePackages() ([]*Package, error) {
	var dirs []string
	err := filepath.WalkDir(l.ModuleRoot, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != l.ModuleRoot && (name == "vendor" || name == "testdata" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		dirs = append(dirs, p)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	var pkgs []*Package
	for _, dir := range dirs {
		rel, err := filepath.Rel(l.ModuleRoot, dir)
		if err != nil {
			return nil, err
		}
		path := l.ModulePath
		if rel != "." {
			path = l.ModulePath + "/" + filepath.ToSlash(rel)
		}
		if _, err := l.ctxt.ImportDir(dir, 0); err != nil {
			if _, ok := err.(*build.NoGoError); ok {
				continue
			}
			return nil, fmt.Errorf("load: %s: %v", dir, err)
		}
		pkg, err := l.LoadTarget(dir, path)
		if err != nil {
			return nil, fmt.Errorf("load: %s: %v", path, err)
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// FindModule walks upward from dir to the enclosing go.mod and returns
// the module root directory and module path.
func FindModule(dir string) (root, path string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; d = filepath.Dir(d) {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("load: %s/go.mod has no module directive", d)
		}
		if filepath.Dir(d) == d {
			return "", "", fmt.Errorf("load: no go.mod above %s", abs)
		}
	}
}

// DependencyOrder topologically sorts loaded packages so every package
// follows the module-internal packages it imports — the schedule
// fact-exporting analyzers require (a fact must exist before its
// importer asks for it). Ties keep the input's deterministic order.
func DependencyOrder(pkgs []*Package) []*Package {
	byPath := make(map[string]*Package, len(pkgs))
	for _, p := range pkgs {
		byPath[p.PkgPath] = p
	}
	var out []*Package
	state := make(map[string]int, len(pkgs)) // 0 unvisited, 1 visiting, 2 done
	var visit func(p *Package)
	visit = func(p *Package) {
		switch state[p.PkgPath] {
		case 1, 2:
			return // cycle (impossible in a compiling module) or done
		}
		state[p.PkgPath] = 1
		for _, imp := range p.Types.Imports() {
			if dep, ok := byPath[imp.Path()]; ok {
				visit(dep)
			}
		}
		state[p.PkgPath] = 2
		out = append(out, p)
	}
	for _, p := range pkgs {
		visit(p)
	}
	return out
}
