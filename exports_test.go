package bulkpreload_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// testOnlyExports are the package-level exported functions of internal/
// that no production path calls, each kept for the reason given.
var testOnlyExports = map[string]string{
	"bulkpreload/internal/zaddr.Bits":         "building block of btb's test reference model (model_test.go)",
	"bulkpreload/internal/zaddr.SetBits":      "composes addresses field by field in the btb tests",
	"bulkpreload/internal/zaddr.FlipBit":      "flips one target bit in the btb and ctb layout tests",
	"bulkpreload/internal/zaddr.OffsetWithin": "building block of btb's test reference model (model_test.go)",
	"bulkpreload/internal/trace.Read":         "decodes in-memory ZBPT streams for the wire-format tests; ReadFile shares its decoder",
	"bulkpreload/internal/obs/perfstat.SweepUnitLabels": "bench_parallel_test.go pins the perfstat sweep to the benchmarks' units " +
		"and cannot reach perfstat's unexported unit list",
}

// TestNoTestOnlyExports keeps the production surface from growing
// back: every package-level exported function in internal/ needs a
// caller in a non-test file of the module or of studybench, or an entry
// in testOnlyExports. A function only tests call belongs in a _test.go
// file of the package whose tests use it. The analyzer suite
// (internal/check) and the test-helper packages layouttest and
// obs/obstest are exempt: tests are their production.
func TestNoTestOnlyExports(t *testing.T) {
	fset := token.NewFileSet()
	exempt := map[string]bool{"check": true, "layouttest": true, "obs/obstest": true}
	declared := map[string]token.Position{} // "import/path.Name" -> declaration
	used := map[string]bool{}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); p == "vendor" || name == "testdata" || p != "." && (name[0] == '.' || name[0] == '_') {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		// studybench is its own module, bulkpreload/studybench, so
		// its import paths line up with the directory too.
		pkg := path.Join("bulkpreload", filepath.ToSlash(filepath.Dir(p)))
		rel, inInternal := strings.CutPrefix(pkg, "bulkpreload/internal/")
		if inInternal && !exempt[strings.SplitN(rel, "/", 2)[0]] && !exempt[rel] {
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && fn.Name.IsExported() {
					declared[pkg+"."+fn.Name.Name] = fset.Position(fn.Pos())
				}
			}
		}
		imports := map[string]string{} // local name -> import path
		for _, imp := range f.Imports {
			ip, _ := strconv.Unquote(imp.Path.Value)
			local := path.Base(ip)
			if imp.Name != nil {
				local = imp.Name.Name
			}
			imports[local] = ip
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok {
				// The declaration's own name is not a use; its body is.
				if fn.Body != nil {
					markUses(fn.Body, pkg, imports, used)
				}
				continue
			}
			markUses(decl, pkg, imports, used)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(declared) == 0 {
		t.Fatal("found no exported functions under internal/")
	}
	for name, pos := range declared {
		switch _, kept := testOnlyExports[name]; {
		case used[name] && kept:
			t.Errorf("%s: %s has a production caller now; drop its testOnlyExports entry", pos, name)
		case !used[name] && !kept:
			t.Errorf("%s: %s has no caller outside tests; move it into the _test.go file of the package whose tests use it, or delete it", pos, name)
		}
	}
	for name := range testOnlyExports {
		if _, ok := declared[name]; !ok {
			t.Errorf("testOnlyExports names %s, which is not an exported function of internal/", name)
		}
	}
}

// markUses records every use of a package-level function under n: a
// selector pkg.Name through one of the file's imports, or a bare
// identifier, which can only name a function of the file's own package.
// The name after a dot that is not a package is a field or method, not
// a use.
func markUses(n ast.Node, pkg string, imports map[string]string, used map[string]bool) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if id, ok := n.X.(*ast.Ident); ok {
				if ip, ok := imports[id.Name]; ok {
					used[ip+"."+n.Sel.Name] = true
					return false
				}
			}
			markUses(n.X, pkg, imports, used)
			return false
		case *ast.Ident:
			used[pkg+"."+n.Name] = true
		}
		return true
	})
}
