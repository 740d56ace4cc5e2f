// Package packlayout defines the analyzer that proves every declared
// packed bit-layout in the tree at build time. PR 9 moved the
// predictor tables onto structure-of-arrays uint64 lanes whose
// correctness rests on hand-written shift/mask constants — exactly the
// geometry detail that is easy to get subtly wrong and that runtime
// tests only probe pointwise. This analyzer turns each format into a
// declarative contract:
//
//	//zbp:layout meta word:16 dir:0..1 usePHT:2 useCTB:3 length:4..11
//
// on the layout's constant block (or a function doc comment), and
//
//	//zbp:layout meta pack      // or unpack, or uses
//
// on each codec function. Per declaration it checks that fields fit
// the lane word and never overlap; per pack site that every field is
// written at its declared shift with a value provably no wider than
// the declared width (a narrowing store must be dominated by a mask);
// per unpack site that every field is read back with the matching
// shift and a mask/conversion no wider than the field — so pack and
// unpack are proven inverse up to the declared masking. Byte-granular
// formats (the ZBPT trace record, jobq's u32-length+CRC journal frame)
// declare unit:byte and are checked against slice/index extents.
//
// Bounds may reference package constants (a renamed or deleted
// constant fails the build — the fixture-drift guarantee) and at most
// one @ident symbolic term for runtime geometry (btb's tagShift),
// matched against selector field names at use sites. Declarations are
// exported as a package fact; a dependent package restates the layout
// as //zbp:layout pkg.name ... and the two are compared field by
// field, so core/fault/engine code touching btb's 72-bit fault payload
// cannot drift from btb's declaration.
//
// Outside layout-bound function bodies, the analyzer also holds the
// paper's big-endian address geometry (BTB1 49:58, BTBP 52:58, BTB2
// 47:58, bit 0 = MSB) in one place: raw shift/mask arithmetic on a
// zaddr.Addr is rejected everywhere but package zaddr, so bit
// extraction goes through the named helpers.
//
// Intentional departures use //zbp:allow packlayout <reason>.
package packlayout

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"golang.org/x/tools/go/analysis"

	"bulkpreload/internal/check/directive"
)

const name = "packlayout"

// Bound is one resolved field bound: Off units, plus an optional
// symbolic term (a runtime geometry quantity such as btb's tagShift)
// matched by selector field name at use sites.
type Bound struct {
	Sym string
	Off int64
}

func (b Bound) isConst() bool { return b.Sym == "" }

func (b Bound) String() string {
	if b.Sym == "" {
		return fmt.Sprintf("%d", b.Off)
	}
	if b.Off == 0 {
		return "@" + b.Sym
	}
	return fmt.Sprintf("@%s%+d", b.Sym, b.Off)
}

// Field is one resolved field of a layout: Count consecutive copies of
// a Lo..Hi extent (Count is 1 for scalar fields).
type Field struct {
	Name  string
	Count int64
	Lo    Bound
	Hi    Bound
}

// width returns the (element) width of the field when both bounds are
// constant.
func (f Field) width() (int64, bool) {
	if f.Lo.isConst() && f.Hi.isConst() {
		return f.Hi.Off - f.Lo.Off + 1, true
	}
	return 0, false
}

// extent returns the field's total constant extent [lo, hi] including
// array repetition.
func (f Field) extent() (lo, hi int64, ok bool) {
	w, ok := f.width()
	if !ok {
		return 0, 0, false
	}
	return f.Lo.Off, f.Lo.Off + f.Count*w - 1, true
}

// Spec is one resolved layout declaration.
type Spec struct {
	Word   int64
	Unit   string // "bit" or "byte"
	Fields []Field
}

// Layouts is the package fact carrying every layout a package
// declares, so dependent packages can restate and verify them.
type Layouts struct {
	Layouts map[string]Spec
}

func (*Layouts) AFact() {}

func (l *Layouts) String() string {
	names := make([]string, 0, len(l.Layouts))
	for n := range l.Layouts {
		names = append(names, n)
	}
	sort.Strings(names)
	return "layouts(" + strings.Join(names, ", ") + ")"
}

// Analyzer is the packlayout analyzer.
var Analyzer = &analysis.Analyzer{
	Name: name,
	Doc: "prove declared packed bit-layouts: fields fit and never overlap, pack sites " +
		"write each field at its declared shift with a provably fitting value, unpack " +
		"sites read with the matching shift/mask, cross-package restatements agree; " +
		"no raw shift/mask on a zaddr.Addr outside the zaddr helpers and layout codecs",
	Run:       run,
	FactTypes: []analysis.Fact{(*Layouts)(nil)},
}

// decl is one declaration site being processed.
type decl struct {
	layout *directive.Layout
	spec   Spec
	ok     bool
}

func run(pass *analysis.Pass) (interface{}, error) {
	allows := directive.CollectAllows(pass, name)

	// Phase 1: resolve every declaration (const-block and function doc
	// comments alike) against the package scope.
	local := map[string]*decl{}   // unqualified name -> resolved spec
	imported := map[string]Spec{} // "pkg.name" restatements, resolved to the declaring package's spec
	var roleFns []*ast.FuncDecl
	var unbound []ast.Decl // declarations outside any //zbp:layout function
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.GenDecl:
				unbound = append(unbound, d)
				if d.Tok == token.CONST {
					for _, l := range directive.DocLayouts(d.Doc) {
						collectDecl(pass, allows, l, local, imported)
					}
				}
			case *ast.FuncDecl:
				layouts := directive.DocLayouts(d.Doc)
				if len(layouts) == 0 {
					unbound = append(unbound, d)
				}
				hasRole := false
				for _, l := range layouts {
					if len(l.Errs) == 0 && !l.Decl {
						hasRole = true
						continue
					}
					collectDecl(pass, allows, l, local, imported)
				}
				if hasRole {
					roleFns = append(roleFns, d)
				}
			}
		}
	}

	// Phase 2: export the package's own layouts so importers can
	// restate and verify them.
	if pass.ExportPackageFact != nil {
		fact := &Layouts{Layouts: map[string]Spec{}}
		for n, d := range local {
			if d.ok {
				fact.Layouts[n] = d.spec
			}
		}
		if len(fact.Layouts) > 0 {
			pass.ExportPackageFact(fact)
		}
	}

	// Phase 3: check every role-annotated function body against its
	// layout (local by name, restated or imported for "pkg.name").
	for _, fn := range roleFns {
		var binds []*binding
		for _, l := range directive.DocLayouts(fn.Doc) {
			if len(l.Errs) > 0 || l.Decl {
				continue
			}
			spec, ok := resolveSpec(pass, l.Name, local, imported)
			if !ok {
				allows.Report(pass, rangeAt(l.Pos),
					"//zbp:layout %s: no layout named %q is declared in this package or restatable from its imports", strings.Join(l.Roles, " "), l.Name)
				continue
			}
			b := &binding{name: l.Name, spec: spec}
			for _, r := range l.Roles {
				switch r {
				case "pack":
					b.pack = true
				case "unpack":
					b.unpack = true
				}
			}
			binds = append(binds, b)
		}
		if len(binds) > 0 && fn.Body != nil {
			checkFunc(pass, allows, fn, binds)
		}
	}

	// Phase 4: raw address arithmetic outside the layout codecs, whose
	// shifts and masks phase 3 already checked field by field.
	if directive.PkgLastElem(pass.Pkg.Path()) != "zaddr" {
		for _, d := range unbound {
			ast.Inspect(d, func(n ast.Node) bool {
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
			"raw %q arithmetic on a zaddr.Addr bypasses the zaddr bit-geometry helpers; use zaddr.Bits/RowBase/BlockOffset/... or bind the function to a //zbp:layout, so index geometry stays auditable",
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

// collectDecl resolves one declaration-form //zbp:layout and files it
// under the local or imported map. Malformed directives (Errs set) are
// staledirective's to report and are skipped here.
func collectDecl(pass *analysis.Pass, allows *directive.AllowSet, l *directive.Layout, local map[string]*decl, imported map[string]Spec) {
	if len(l.Errs) > 0 {
		return
	}
	if !l.Decl {
		// A bare role on a const block has no body to check.
		allows.Report(pass, rangeAt(l.Pos),
			"//zbp:layout %s %s: a pack/unpack role belongs on the codec function's doc comment, not a constant block", l.Name, strings.Join(l.Roles, " "))
		return
	}
	d := &decl{layout: l}
	ok := true
	word, err := resolveBound(pass, l.Word)
	if err != nil {
		allows.Report(pass, rangeAt(l.Pos), "layout %s: word width %q: %v", l.Name, l.Word, err)
		ok = false
	} else if !word.isConst() {
		allows.Report(pass, rangeAt(l.Pos), "layout %s: word width %q must resolve to a constant, not a @symbolic term", l.Name, l.Word)
		ok = false
	} else if word.Off < 1 {
		allows.Report(pass, rangeAt(l.Pos), "layout %s: word width %d is not positive", l.Name, word.Off)
		ok = false
	}
	d.spec = Spec{Word: word.Off, Unit: l.Unit}
	seen := map[string]bool{}
	for _, rf := range l.Fields {
		if seen[rf.Name] {
			continue // duplicate names are staledirective's diagnostic; keep the first
		}
		seen[rf.Name] = true
		lo, errLo := resolveBound(pass, rf.Lo)
		hi, errHi := resolveBound(pass, rf.Hi)
		if errLo != nil {
			allows.Report(pass, rangeAt(l.Pos), "layout %s field %s: %v", l.Name, rf.Name, errLo)
			ok = false
			continue
		}
		if errHi != nil {
			allows.Report(pass, rangeAt(l.Pos), "layout %s field %s: %v", l.Name, rf.Name, errHi)
			ok = false
			continue
		}
		d.spec.Fields = append(d.spec.Fields, Field{Name: rf.Name, Count: rf.Count, Lo: lo, Hi: hi})
	}
	d.ok = ok
	if pkg, base, qualified := strings.Cut(l.Name, "."); qualified {
		if !d.ok {
			return
		}
		if truth, usable := checkRestatement(pass, allows, l, pkg, base, d.spec); usable {
			// Role checks always run against the declaring package's
			// spec — a diverging restatement was reported above and must
			// not also skew the body checks.
			imported[l.Name] = truth
		}
		return
	}
	if prev, dup := local[l.Name]; dup {
		allows.Report(pass, rangeAt(l.Pos),
			"layout %s redeclared in package %s (first declaration at %s)", l.Name, pass.Pkg.Name(), pass.Fset.Position(prev.layout.Pos))
		return
	}
	if d.ok {
		d.ok = checkGeometry(pass, allows, l, d.spec)
	}
	local[l.Name] = d
}

// checkGeometry verifies a declaration's self-consistency: constant
// fields must fit the word and never overlap. Symbolic bounds are
// checked only against each other where the symbols coincide.
func checkGeometry(pass *analysis.Pass, allows *directive.AllowSet, l *directive.Layout, spec Spec) bool {
	unit := "bit"
	if spec.Unit == "byte" {
		unit = "byte"
	}
	ok := true
	type ext struct {
		name   string
		lo, hi int64
	}
	var exts []ext
	for _, f := range spec.Fields {
		if f.Lo.Sym == f.Hi.Sym && f.Hi.Off < f.Lo.Off {
			allows.Report(pass, rangeAt(l.Pos), "layout %s field %s: bounds %s..%s are inverted", l.Name, f.Name, f.Lo, f.Hi)
			ok = false
			continue
		}
		lo, hi, isConst := f.extent()
		if !isConst {
			continue
		}
		if lo < 0 {
			allows.Report(pass, rangeAt(l.Pos), "layout %s field %s starts at negative %s %d", l.Name, f.Name, unit, lo)
			ok = false
			continue
		}
		if hi > spec.Word-1 {
			allows.Report(pass, rangeAt(l.Pos),
				"layout %s field %s (%ss %d..%d) exceeds the %d-%s word", l.Name, f.Name, unit, lo, hi, spec.Word, unit)
			ok = false
			continue
		}
		exts = append(exts, ext{f.Name, lo, hi})
	}
	sort.Slice(exts, func(i, j int) bool { return exts[i].lo < exts[j].lo })
	for i := 1; i < len(exts); i++ {
		if exts[i].lo <= exts[i-1].hi {
			allows.Report(pass, rangeAt(l.Pos),
				"layout %s: fields %s (%ss %d..%d) and %s (%ss %d..%d) overlap",
				l.Name, exts[i-1].name, unit, exts[i-1].lo, exts[i-1].hi, exts[i].name, unit, exts[i].lo, exts[i].hi)
			ok = false
		}
	}
	return ok
}

// checkRestatement compares a "pkg.name" declaration against the
// imported package fact of the declaring package. It reports every
// divergence and, when the declaring side exists, returns its spec —
// the single source of truth for role checks in this package.
func checkRestatement(pass *analysis.Pass, allows *directive.AllowSet, l *directive.Layout, pkgElem, base string, spec Spec) (Spec, bool) {
	var from *Layouts
	for _, imp := range pass.Pkg.Imports() {
		if directive.PkgLastElem(imp.Path()) != pkgElem {
			continue
		}
		var fact Layouts
		if pass.ImportPackageFact != nil && pass.ImportPackageFact(imp, &fact) {
			from = &fact
		}
		break
	}
	if from == nil {
		allows.Report(pass, rangeAt(l.Pos),
			"layout %s restates a layout from package %q, but no imported package of that name exports layout facts", l.Name, pkgElem)
		return Spec{}, false
	}
	theirs, ok := from.Layouts[base]
	if !ok {
		allows.Report(pass, rangeAt(l.Pos),
			"layout %s: package %s declares no //zbp:layout named %q", l.Name, pkgElem, base)
		return Spec{}, false
	}
	clean := true
	if spec.Word != theirs.Word {
		allows.Report(pass, rangeAt(l.Pos),
			"layout %s declares word:%d here but %d at %s's declaration", l.Name, spec.Word, theirs.Word, pkgElem)
		clean = false
	}
	if spec.Unit != theirs.Unit {
		allows.Report(pass, rangeAt(l.Pos),
			"layout %s declares unit:%s here but unit:%s at %s's declaration", l.Name, spec.Unit, theirs.Unit, pkgElem)
		clean = false
	}
	byName := map[string]Field{}
	for _, f := range theirs.Fields {
		byName[f.Name] = f
	}
	seen := map[string]bool{}
	for _, f := range spec.Fields {
		seen[f.Name] = true
		tf, ok := byName[f.Name]
		if !ok {
			allows.Report(pass, rangeAt(l.Pos),
				"layout %s adds field %q, which %s's declaration does not have", l.Name, f.Name, pkgElem)
			clean = false
			continue
		}
		if f.Lo != tf.Lo || f.Hi != tf.Hi || f.Count != tf.Count {
			allows.Report(pass, rangeAt(l.Pos),
				"layout %s field %q is %s here but %s at %s's declaration",
				l.Name, f.Name, fieldStr(f), fieldStr(tf), pkgElem)
			clean = false
		}
	}
	for _, f := range theirs.Fields {
		if !seen[f.Name] {
			allows.Report(pass, rangeAt(l.Pos),
				"layout %s omits field %q (%s at %s's declaration)", l.Name, f.Name, fieldStr(f), pkgElem)
			clean = false
		}
	}
	// Divergence was reported precisely above; the declaring package's
	// spec remains the usable truth either way.
	_ = clean
	return theirs, true
}

func fieldStr(f Field) string {
	s := f.Lo.String()
	if f.Hi != f.Lo {
		s += ".." + f.Hi.String()
	}
	if f.Count > 1 {
		return fmt.Sprintf("[%d]x %s", f.Count, s)
	}
	return s
}

// resolveSpec resolves a role binding's layout name: a local
// declaration, a same-package restatement, or directly the declaring
// package's fact for an un-restated "pkg.name".
func resolveSpec(pass *analysis.Pass, n string, local map[string]*decl, imported map[string]Spec) (Spec, bool) {
	if d, ok := local[n]; ok && d.ok {
		return d.spec, true
	}
	if s, ok := imported[n]; ok {
		return s, true
	}
	pkgElem, base, qualified := strings.Cut(n, ".")
	if !qualified {
		return Spec{}, false
	}
	for _, imp := range pass.Pkg.Imports() {
		if directive.PkgLastElem(imp.Path()) != pkgElem {
			continue
		}
		var fact Layouts
		if pass.ImportPackageFact != nil && pass.ImportPackageFact(imp, &fact) {
			if s, ok := fact.Layouts[base]; ok {
				return s, true
			}
		}
		break
	}
	return Spec{}, false
}

// rangeAt adapts a bare position to the analysis.Range the allow-aware
// reporter wants.
type rangeAt token.Pos

func (r rangeAt) Pos() token.Pos { return token.Pos(r) }
func (r rangeAt) End() token.Pos { return token.Pos(r) }
