package bulkpreload_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestOneProductionRunLoop pins the record-at-a-time engine.Run loop to
// its oracle role: outside internal/engine, no non-test file of the
// module may call engine.Run. Production runs go through sim.RunUnits
// (the batched loop on the worker pool); the oracle is reached through
// sim.RunUnitsSerial. vendor/ and studybench/ (its own module) are not
// scanned, nor are testdata directories.
func TestOneProductionRunLoop(t *testing.T) {
	const enginePath = "bulkpreload/internal/engine"
	fset := token.NewFileSet()
	var sites []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch name := d.Name(); {
			case path == "vendor", path == "studybench", path == filepath.FromSlash("internal/engine"),
				name == "testdata", path != "." && (name[0] == '.' || name[0] == '_'):
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		local := ""
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == enginePath {
				local = "engine"
				if imp.Name != nil {
					local = imp.Name.Name
				}
			}
		}
		if local == "" {
			return nil
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Run" {
				return true
			}
			if id, ok := sel.X.(*ast.Ident); ok && id.Name == local {
				sites = append(sites, fset.Position(call.Pos()).String())
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sites {
		t.Errorf("%s: engine.Run outside the oracle; schedule a sim.Unit on sim.RunUnits instead", s)
	}
}
