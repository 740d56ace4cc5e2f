// Package rawaddr defines the analyzer that holds the paper's
// big-endian address geometry (BTB1 49:58, BTBP 52:58, BTB2 47:58,
// bit 0 = MSB) in one place: raw shift/mask arithmetic on a zaddr.Addr
// is rejected everywhere but package zaddr, so bit extraction goes
// through the named helpers (zaddr.Bits, RowBase, BlockOffset, ...).
// No test can prove that a geometry computation was not hand-rolled
// somewhere else, so this rule stays static.
//
// Intentional departures use //zbp:allow rawaddr <reason>.
package rawaddr

import (
	"go/ast"
	"go/token"
	"go/types"

	"golang.org/x/tools/go/analysis"

	"bulkpreload/internal/check/directive"
)

const name = "rawaddr"

// Analyzer is the rawaddr analyzer.
var Analyzer = &analysis.Analyzer{
	Name: name,
	Doc:  "no raw shift/mask arithmetic on a zaddr.Addr outside the zaddr bit-geometry helpers",
	Run:  run,
}

// InScope reports whether rawaddr checks the package: every package but
// zaddr itself, whose helpers are the one place the geometry lives.
func InScope(pkgPath string) bool { return directive.PkgLastElem(pkgPath) != "zaddr" }

func run(pass *analysis.Pass) (interface{}, error) {
	allows := directive.CollectAllows(pass, name)
	if InScope(pass.Pkg.Path()) {
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if bin, isBin := n.(*ast.BinaryExpr); isBin {
					checkRawAddr(pass, allows, bin)
				}
				return true
			})
		}
	}
	allows.ReportUnused(pass)
	return nil, nil
}

// checkRawAddr flags a shift/mask operator applied to a zaddr.Addr
// (directly or through an integer conversion): it bypasses the named
// big-endian geometry helpers.
func checkRawAddr(pass *analysis.Pass, allows *directive.AllowSet, bin *ast.BinaryExpr) {
	switch bin.Op {
	case token.SHL, token.SHR, token.AND, token.AND_NOT, token.OR, token.XOR:
	default:
		return
	}
	if isAddr(pass, bin.X) || isAddr(pass, bin.Y) {
		allows.Report(pass, bin,
			"raw %q arithmetic on a zaddr.Addr bypasses the zaddr bit-geometry helpers; use zaddr.Bits/RowBase/BlockOffset/..., so index geometry stays auditable",
			bin.Op.String())
	}
}

// isAddr reports whether expr is a zaddr.Addr or a conversion of one,
// as in uint64(a) >> n.
func isAddr(pass *analysis.Pass, expr ast.Expr) bool {
	expr = ast.Unparen(expr)
	if call, isCall := expr.(*ast.CallExpr); isCall && len(call.Args) == 1 {
		if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
			expr = call.Args[0]
		}
	}
	named, isNamed := pass.TypesInfo.TypeOf(expr).(*types.Named)
	if !isNamed {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Addr" && obj.Pkg() != nil && directive.PkgLastElem(obj.Pkg().Path()) == "zaddr"
}
