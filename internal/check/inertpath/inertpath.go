// Package inertpath defines an interprocedural purity analyzer backing
// the engine's "provably-inert instruction run" claim
// (docs/PERFORMANCE.md): engine.RunBatched's bulk fast path may skip
// per-record stepping only because its eligibility window,
// Engine.bulkWindow, inspects state without perturbing it — if the
// window computation had any side effect, batched and record-at-a-time
// runs would diverge and the differential gate would be the only thing
// standing.
//
// The analyzer turns that argument into a build-time proof:
//
//   - Engine.bulkWindow (any bulkWindow method in a package named
//     engine) must be annotated //zbp:inert;
//   - a //zbp:inert function's body may read anything but write only
//     function-local values: no assignment through a pointer, slice,
//     or map; no channel operations, go, or defer; no closures;
//   - a //zbp:inert function may call only builtin len/cap/min/max,
//     panic (contract assertions abort, they do not mutate),
//     type conversions, and functions that are themselves inert —
//     same-package callees by annotation, cross-package callees by an
//     analysis fact exported when their package was analyzed.
//
// Facts make the proof transitive across the whole module: deleting
// the //zbp:inert annotation on any fast-path callee (say zaddr.Align)
// removes its fact, and every inert caller fails the build. Obs
// counters need no special case — obs has no inert functions, so a
// counter touch is rejected as a non-inert call, with a sharper
// message.
//
// Intentional departures (there should be none on the fast path) use
// //zbp:allow inertpath <reason>.
package inertpath

import (
	"go/ast"
	"go/token"
	"go/types"

	"golang.org/x/tools/go/analysis"

	"bulkpreload/internal/check/directive"
)

const name = "inertpath"

// inertFact marks a function annotated //zbp:inert; it crosses package
// boundaries through the driver's gob-serialized fact store.
type inertFact struct {
	// Declared is set for every annotated function (the claim is
	// exported even when the body check fails, so one violation does
	// not cascade spurious "non-inert callee" reports downstream).
	Declared bool
}

func (*inertFact) AFact()         {}
func (*inertFact) String() string { return "inert" }

// Analyzer is the inertpath analyzer.
var Analyzer = &analysis.Analyzer{
	Name: name,
	Doc: "functions on the bulk fast path's eligibility scan must be annotated " +
		"//zbp:inert and provably side-effect-free, transitively across packages",
	Run:       run,
	FactTypes: []analysis.Fact{(*inertFact)(nil)},
}

func run(pass *analysis.Pass) (interface{}, error) {
	allows := directive.CollectAllows(pass, name)

	// Pass 1: collect the package's inert set and export the facts
	// before checking any body, so mutual recursion and source order
	// don't matter.
	inert := make(map[types.Object]*ast.FuncDecl)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if !directive.HasInert(fn) {
				checkAnchor(pass, allows, fn)
				continue
			}
			obj := pass.TypesInfo.Defs[fn.Name]
			if obj == nil {
				continue
			}
			inert[obj] = fn
			if pass.ExportObjectFact != nil {
				pass.ExportObjectFact(obj, &inertFact{Declared: true})
			}
		}
	}

	// Pass 2: prove each inert body.
	for obj, fn := range inert {
		if fn.Body == nil {
			allows.Report(pass, fn, "inert function %s has no body to verify; drop the annotation or provide a Go implementation", obj.Name())
			continue
		}
		checkBody(pass, allows, fn, inert)
	}
	allows.ReportUnused(pass)
	return nil, nil
}

// checkAnchor pins the proof's root: the bulk fast path's eligibility
// window must itself be annotated, so the transitive callee rule has
// somewhere to start and deleting the root annotation cannot silently
// disable the whole check.
func checkAnchor(pass *analysis.Pass, allows *directive.AllowSet, fn *ast.FuncDecl) {
	if directive.PkgLastElem(pass.Pkg.Path()) != "engine" {
		return
	}
	if fn.Name.Name != "bulkWindow" || fn.Recv == nil {
		return
	}
	allows.Report(pass, fn.Name,
		"bulk fast-path eligibility window %s must be annotated //zbp:inert: RunBatched's equivalence to Run rests on it having no side effects", fn.Name.Name)
}

func checkBody(pass *analysis.Pass, allows *directive.AllowSet, fn *ast.FuncDecl, inert map[types.Object]*ast.FuncDecl) {
	fname := fn.Name.Name
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				return true
			}
			for _, lhs := range n.Lhs {
				if reason := writeEscapes(pass, fn, lhs); reason != "" {
					allows.Report(pass, lhs, "inert function %s %s; the bulk fast-path scan must not write reachable state", fname, reason)
				}
			}
		case *ast.IncDecStmt:
			if reason := writeEscapes(pass, fn, n.X); reason != "" {
				allows.Report(pass, n, "inert function %s %s; the bulk fast-path scan must not write reachable state", fname, reason)
			}
		case *ast.CallExpr:
			checkCall(pass, allows, fn, n, inert)
		case *ast.FuncLit:
			allows.Report(pass, n, "inert function %s declares a function literal; the purity proof does not cross closures", fname)
			return false
		case *ast.GoStmt:
			allows.Report(pass, n, "inert function %s starts a goroutine", fname)
		case *ast.DeferStmt:
			allows.Report(pass, n, "inert function %s defers a call", fname)
		case *ast.SendStmt:
			allows.Report(pass, n, "inert function %s sends on a channel", fname)
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				allows.Report(pass, n, "inert function %s receives from a channel", fname)
			}
		}
		return true
	})
}

// writeEscapes classifies an assignment target inside an inert
// function. It returns "" when the write provably stays function-local:
// a plain local variable, or a selector/index chain rooted at a local
// that never crosses a pointer, slice, or map (those reach shared
// state). Anything else returns a human-readable reason.
func writeEscapes(pass *analysis.Pass, fn *ast.FuncDecl, lhs ast.Expr) string {
	e := ast.Unparen(lhs)
	for {
		switch x := e.(type) {
		case *ast.Ident:
			if x.Name == "_" {
				return ""
			}
			obj := pass.TypesInfo.Uses[x]
			if obj == nil {
				return ""
			}
			if obj.Pos() < fn.Pos() || obj.Pos() >= fn.End() {
				return "assigns to " + x.Name + ", declared outside the function"
			}
			return ""
		case *ast.SelectorExpr:
			if t := pass.TypesInfo.TypeOf(x.X); t != nil {
				if _, isPtr := t.Underlying().(*types.Pointer); isPtr {
					return "writes " + exprString(x) + " through a pointer"
				}
			}
			e = ast.Unparen(x.X)
		case *ast.StarExpr:
			return "writes through an explicit pointer dereference"
		case *ast.IndexExpr:
			if t := pass.TypesInfo.TypeOf(x.X); t != nil {
				switch t.Underlying().(type) {
				case *types.Slice:
					return "writes a slice element, which aliases shared backing storage"
				case *types.Map:
					return "writes a map entry, which aliases the shared map"
				case *types.Pointer: // *[N]T auto-deref
					return "writes an array element through a pointer"
				}
			}
			e = ast.Unparen(x.X)
		default:
			return "assigns through a composite expression"
		}
	}
}

func checkCall(pass *analysis.Pass, allows *directive.AllowSet, fn *ast.FuncDecl, call *ast.CallExpr, inert map[types.Object]*ast.FuncDecl) {
	fname := fn.Name.Name
	// Type conversions are values, not effects.
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		return
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if b, ok := pass.TypesInfo.Uses[fun].(*types.Builtin); ok {
			switch b.Name() {
			case "len", "cap", "min", "max", "panic":
				return
			default:
				allows.Report(pass, call, "inert function %s calls builtin %s, which is not side-effect-free enough for the bulk fast-path scan", fname, b.Name())
				return
			}
		}
		checkCallee(pass, allows, fname, call, fun, inert)
	case *ast.SelectorExpr:
		checkCallee(pass, allows, fname, call, fun.Sel, inert)
	default:
		allows.Report(pass, call, "inert function %s calls a computed function value; inert calls must resolve statically", fname)
	}
}

// checkCallee resolves the called identifier and demands an inert
// callee: same-package by annotation, cross-package by imported fact.
func checkCallee(pass *analysis.Pass, allows *directive.AllowSet, fname string, call *ast.CallExpr, id *ast.Ident, inert map[types.Object]*ast.FuncDecl) {
	callee, ok := pass.TypesInfo.Uses[id].(*types.Func)
	if !ok {
		allows.Report(pass, call, "inert function %s calls %s, a function value; inert calls must resolve statically", fname, id.Name)
		return
	}
	sig, _ := callee.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		if _, isIface := sig.Recv().Type().Underlying().(*types.Interface); isIface {
			allows.Report(pass, call, "inert function %s calls interface method %s, which cannot be proven inert statically", fname, callee.Name())
			return
		}
	}
	if callee.Pkg() == nil {
		return // error.Error and friends resolve without a package; unreachable for inert code
	}
	if callee.Pkg() == pass.Pkg {
		if _, ok := inert[callee]; ok {
			return
		}
		allows.Report(pass, call, "inert function %s calls %s, which is not annotated //zbp:inert", fname, callee.Name())
		return
	}
	var fact inertFact
	if pass.ImportObjectFact != nil && pass.ImportObjectFact(callee, &fact) && fact.Declared {
		return
	}
	if directive.PkgLastElem(callee.Pkg().Path()) == "obs" {
		allows.Report(pass, call, "inert function %s touches obs metric state via %s.%s; the bulk fast path must leave counters to the bulk update", fname, callee.Pkg().Name(), callee.Name())
		return
	}
	allows.Report(pass, call, "inert function %s calls %s.%s, which is not annotated //zbp:inert in its own package", fname, callee.Pkg().Name(), callee.Name())
}

// exprString renders a short selector chain for diagnostics.
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.StarExpr:
		return "*" + exprString(e.X)
	case *ast.IndexExpr:
		return exprString(e.X) + "[...]"
	}
	return "expression"
}
