// Package bitrange defines an analyzer that enforces the paper's
// address bit-geometry at build time. The HPCA 2013 tables are indexed
// with big-endian z/Architecture bit ranges (BTB1 49:58, BTBP 52:58,
// BTB2 47:58, bit 0 = MSB) — exactly the index-geometry details that
// BTB reverse-engineering work shows are easy to get subtly wrong. The
// analyzer:
//
//  1. constant-propagates zaddr.Bits / zaddr.SetBits call sites and
//     rejects hi > lo (arguments swapped — the little-endian reflex)
//     and lo > 63, with a suggested fix for the swap;
//  2. flags raw shift/mask arithmetic on zaddr.Addr values outside
//     package zaddr itself — bit extraction must go through the named
//     helpers so the geometry stays auditable in one place.
package bitrange

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/constant"
	"go/printer"
	"go/token"
	"go/types"

	"golang.org/x/tools/go/analysis"

	"bulkpreload/internal/check/directive"
)

const name = "bitrange"

// Analyzer is the bitrange analyzer.
var Analyzer = &analysis.Analyzer{
	Name: name,
	Doc: "constant-check zaddr bit ranges (big-endian, hi <= lo <= 63) and raw " +
		"shift/mask arithmetic bypassing the zaddr helpers",
	Run: run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	if directive.PkgLastElem(pass.Pkg.Path()) == "zaddr" {
		return nil, nil // the helpers themselves implement the geometry
	}
	allows := directive.CollectAllows(pass, name)
	for _, f := range pass.Files {
		// Functions bound to a //zbp:layout are the packlayout
		// analyzer's jurisdiction: their raw shift/mask arithmetic is
		// checked against the declared field geometry there, so the
		// blanket raw-arithmetic rule stands down instead of demanding
		// an allow escape per codec.
		var layoutBodies [][2]token.Pos
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Body != nil && directive.HasLayout(fn) {
				layoutBodies = append(layoutBodies, [2]token.Pos{fn.Body.Pos(), fn.Body.End()})
			}
		}
		inLayout := func(pos token.Pos) bool {
			for _, r := range layoutBodies {
				if pos >= r[0] && pos < r[1] {
					return true
				}
			}
			return false
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkBitsCall(pass, allows, n)
			case *ast.BinaryExpr:
				if !inLayout(n.Pos()) {
					checkRawBitArith(pass, allows, n)
				}
			}
			return true
		})
	}
	allows.ReportUnused(pass)
	return nil, nil
}

// isZaddrFunc reports whether call invokes a package-level function
// named name from a package whose path ends in "zaddr".
func isZaddrFunc(pass *analysis.Pass, call *ast.CallExpr, name string) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Name() != name || fn.Pkg() == nil {
		return false
	}
	return directive.PkgLastElem(fn.Pkg().Path()) == "zaddr"
}

// intConst returns the exact int64 value of expr if the type checker
// proved it constant.
func intConst(pass *analysis.Pass, expr ast.Expr) (int64, bool) {
	tv, ok := pass.TypesInfo.Types[expr]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
		return 0, false
	}
	return constant.Int64Val(tv.Value)
}

func checkBitsCall(pass *analysis.Pass, allows *directive.AllowSet, call *ast.CallExpr) {
	var hiArg, loArg ast.Expr
	switch {
	case isZaddrFunc(pass, call, "Bits") && len(call.Args) == 3:
		hiArg, loArg = call.Args[1], call.Args[2]
	case isZaddrFunc(pass, call, "SetBits") && len(call.Args) == 4:
		hiArg, loArg = call.Args[1], call.Args[2]
	default:
		return
	}
	hi, hiOK := intConst(pass, hiArg)
	lo, loOK := intConst(pass, loArg)
	if hiOK && loOK && hi > lo {
		pos := call.Pos()
		if !allows.Permit(pos) {
			pass.Report(analysis.Diagnostic{
				Pos: call.Pos(), End: call.End(),
				Message: fmt.Sprintf("zaddr bit range %d:%d has hi > lo; ranges are big-endian (bit 0 = MSB, hi <= lo) — arguments are likely swapped", hi, lo),
				SuggestedFixes: []analysis.SuggestedFix{{
					Message: fmt.Sprintf("swap to %d:%d", lo, hi),
					TextEdits: []analysis.TextEdit{
						{Pos: hiArg.Pos(), End: hiArg.End(), NewText: render(pass.Fset, loArg)},
						{Pos: loArg.Pos(), End: loArg.End(), NewText: render(pass.Fset, hiArg)},
					},
				}},
			})
		}
		return
	}
	if loOK && lo > 63 {
		allows.Report(pass, call,
			"zaddr bit range %s:%d is out of range: lo must be <= 63 (bit 63 is the LSB)", fmtConst(hi, hiOK), lo)
	}
	if hiOK && (hi < 0 || hi > 63) {
		allows.Report(pass, call,
			"zaddr bit range %d:%s is out of range: hi must be in 0..63", hi, fmtConst(lo, loOK))
	}
}

func fmtConst(v int64, ok bool) string {
	if !ok {
		return "?"
	}
	return fmt.Sprintf("%d", v)
}

// checkRawBitArith flags shift/mask operators applied to zaddr.Addr
// values (directly or through an integer conversion), which bypass the
// named bit-geometry helpers.
func checkRawBitArith(pass *analysis.Pass, allows *directive.AllowSet, bin *ast.BinaryExpr) {
	switch bin.Op {
	case token.SHL, token.SHR, token.AND, token.AND_NOT, token.OR, token.XOR:
	default:
		return
	}
	if !involvesAddr(pass, bin.X) && !involvesAddr(pass, bin.Y) {
		return
	}
	allows.Report(pass, bin,
		"raw %q arithmetic on a zaddr.Addr bypasses the zaddr bit-geometry helpers; use zaddr.Bits/SetBits/RowBase/BlockOffset/... so index geometry stays auditable",
		bin.Op.String())
}

// involvesAddr reports whether expr is of type zaddr.Addr or is a
// direct integer conversion of a zaddr.Addr value.
func involvesAddr(pass *analysis.Pass, expr ast.Expr) bool {
	expr = ast.Unparen(expr)
	if isAddrType(pass.TypesInfo.TypeOf(expr)) {
		return true
	}
	// uint64(a) >> n: a conversion call whose sole argument is an Addr.
	if call, ok := expr.(*ast.CallExpr); ok && len(call.Args) == 1 {
		if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
			return isAddrType(pass.TypesInfo.TypeOf(call.Args[0]))
		}
	}
	return false
}

func isAddrType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Addr" && obj.Pkg() != nil &&
		directive.PkgLastElem(obj.Pkg().Path()) == "zaddr"
}

func render(fset *token.FileSet, n ast.Node) []byte {
	var buf bytes.Buffer
	printer.Fprint(&buf, fset, n)
	return buf.Bytes()
}
