// Package obsreg defines an analyzer that keeps metric declarations
// and registry wiring in lockstep: every obs.Counter / obs.Gauge /
// obs.Histogram field declared in a struct of a package that uses the
// internal/obs registry must be registered (passed by address to a
// Registry method) somewhere in that package. It is the static twin of
// the exporters' runtime reconciliation — a counter that increments but
// was never enumerated silently vanishes from snapshots, Prometheus
// text, and phase timelines, which runtime reconciliation can only
// catch on code paths a test happens to drive.
//
// In packages that import the span tracer, an unexported
// *span.Recorder field must also be assigned somewhere in its package:
// nothing outside the package can wire it, so an unassigned one means
// spans recorded through it can never appear.
package obsreg

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"

	"bulkpreload/internal/check/directive"
)

const name = "obsreg"

// fieldDecl is one struct field of interest (an obs metric or a span
// recorder) with enough context to report on it.
type fieldDecl struct {
	obj    *types.Var
	strct  string
	node   *ast.Field
	nameID *ast.Ident
}

// Analyzer is the obsreg analyzer.
var Analyzer = &analysis.Analyzer{
	Name: name,
	Doc:  "every obs metric field must be wired into an obs.Registry; every unexported span recorder field must be assigned",
	Run:  run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	switch directive.PkgLastElem(pass.Pkg.Path()) {
	case "obs", "span":
		return nil, nil // the registry / tracer implementations themselves
	}
	allows := directive.CollectAllows(pass, name)

	// Pass 1: every obs metric field and span recorder field declared in
	// this package.
	var declared []fieldDecl
	var recorders []fieldDecl
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				for _, name := range field.Names {
					obj, ok := pass.TypesInfo.Defs[name].(*types.Var)
					if !ok {
						continue
					}
					d := fieldDecl{obj: obj, strct: ts.Name.Name, node: field, nameID: name}
					switch {
					case isObsMetricType(obj.Type()):
						declared = append(declared, d)
					case isSpanRecorderType(obj.Type()):
						recorders = append(recorders, d)
					}
				}
			}
			return true
		})
	}
	checkSpans(pass, allows, recorders)
	if len(declared) == 0 {
		allows.ReportUnused(pass)
		return nil, nil
	}

	// Pass 2: every metric field whose address reaches an obs.Registry
	// method call.
	registered := map[*types.Var]bool{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isRegistryCall(pass, call) {
				return true
			}
			for _, arg := range call.Args {
				un, ok := ast.Unparen(arg).(*ast.UnaryExpr)
				if !ok {
					continue
				}
				if sel, ok := ast.Unparen(un.X).(*ast.SelectorExpr); ok {
					if s, ok := pass.TypesInfo.Selections[sel]; ok {
						if v, ok := s.Obj().(*types.Var); ok {
							registered[v] = true
						}
					}
				}
				if id, ok := ast.Unparen(un.X).(*ast.Ident); ok {
					if v, ok := pass.TypesInfo.Uses[id].(*types.Var); ok {
						registered[v] = true
					}
				}
			}
			return true
		})
	}

	for _, d := range declared {
		if registered[d.obj] {
			continue
		}
		allows.Report(pass, d.nameID,
			"metric field %s.%s (%s) is never registered into an obs.Registry; wire it in RegisterMetrics or it will be invisible to snapshots and exporters",
			d.strct, d.obj.Name(), types.TypeString(d.obj.Type(), types.RelativeTo(pass.Pkg)))
	}
	allows.ReportUnused(pass)
	return nil, nil
}

// checkSpans enforces the span-wiring rule in packages that import the
// span tracer: unexported recorder fields must be assigned somewhere in
// the package, since nothing outside it can wire them. Exported ones
// are caller-set configuration (e.g. engine.Params.Spans) and exempt.
func checkSpans(pass *analysis.Pass, allows *directive.AllowSet, recorders []fieldDecl) {
	if !importsSpan(pass.Pkg) {
		return
	}
	assigned := map[*types.Var]bool{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
						if s, ok := pass.TypesInfo.Selections[sel]; ok {
							if v, ok := s.Obj().(*types.Var); ok {
								assigned[v] = true
							}
						}
					}
				}
			case *ast.KeyValueExpr:
				if id, ok := n.Key.(*ast.Ident); ok {
					if v, ok := pass.TypesInfo.Uses[id].(*types.Var); ok {
						assigned[v] = true
					}
				}
			}
			return true
		})
	}
	for _, r := range recorders {
		if r.obj.Exported() || assigned[r.obj] {
			continue
		}
		allows.Report(pass, r.nameID,
			"span recorder field %s.%s is never assigned in this package; spans recorded through it can never be enabled",
			r.strct, r.obj.Name())
	}
}

// importsSpan reports whether pkg imports a span tracer package
// (matched by package-path last element, like the obs match).
func importsSpan(pkg *types.Package) bool {
	for _, imp := range pkg.Imports() {
		if directive.PkgLastElem(imp.Path()) == "span" {
			return true
		}
	}
	return false
}

// isSpanRecorderType reports whether t is *span.Recorder (by name, so
// testdata stubs behave like the real package).
func isSpanRecorderType(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Recorder" && obj.Pkg() != nil &&
		directive.PkgLastElem(obj.Pkg().Path()) == "span"
}

// isObsMetricType reports whether t is obs.Counter, obs.Gauge, or
// obs.Histogram (by name, so testdata stubs behave like the real
// package).
func isObsMetricType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || directive.PkgLastElem(obj.Pkg().Path()) != "obs" {
		return false
	}
	switch obj.Name() {
	case "Counter", "Gauge", "Histogram":
		return true
	}
	return false
}

// isRegistryCall reports whether call invokes a method on obs.Registry
// (by receiver type, so any registration helper counts).
func isRegistryCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	rt := sig.Recv().Type()
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	named, ok := rt.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Registry" && obj.Pkg() != nil &&
		directive.PkgLastElem(obj.Pkg().Path()) == "obs"
}
