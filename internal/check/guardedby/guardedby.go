// Package guardedby checks declared data-race contracts: a struct
// field annotated
//
//	st *state //zbp:guardedby mu
//
// may only be read or written while the named sibling mutex is held.
// An access site satisfies the contract either by a mu.Lock() that
// dominates it in the same function (tracked by the lockset walker,
// including through the manual early-unlock-and-return ladders the
// defer idiom can't express) or by running inside a method whose doc
// comment declares //zbp:caller-holds mu.
//
// Two companion checks keep the annotations honest:
//
//   - every //zbp:guardedby and //zbp:caller-holds name must resolve to
//     an actual sync mutex (a sibling field, or for caller-holds a
//     receiver field or package-level sync var) — a typo'd mutex name
//     silently guarding nothing is itself a finding;
//   - unlock-on-all-paths: a function that acquires a mutex without
//     defer must release it on every return path. The held-at-exit set
//     the walker computes makes the jobq.Queue ladder checkable.
//
// The guard key is type-level ("jobq.Queue.mu" guards Queue.st on every
// instance), the same granularity the lockorder graph uses. Guarded
// exported fields export a fact so cross-package accesses are checked
// too. Constructor writes that predate sharing use //zbp:allow
// guardedby <reason>.
package guardedby

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"

	"bulkpreload/internal/check/directive"
	"bulkpreload/internal/check/lockset"
)

const name = "guardedby"

// guardFact marks an exported guarded field; Mutex is the full lock key
// ("pkg.Owner.mu") access sites must hold.
type guardFact struct {
	Mutex string
}

func (*guardFact) AFact()           {}
func (f *guardFact) String() string { return "guardedby " + f.Mutex }

// Analyzer is the guardedby analyzer.
var Analyzer = &analysis.Analyzer{
	Name: name,
	Doc: "accesses to //zbp:guardedby fields must hold the named mutex (locked in-function " +
		"or declared //zbp:caller-holds); manual unlock ladders must release on every path",
	Run:       run,
	FactTypes: []analysis.Fact{(*guardFact)(nil)},
}

// guard is one annotated field's contract.
type guard struct {
	owner  string // declaring struct type
	field  string
	muName string
	muKey  string // lock key accesses must hold
}

func run(pass *analysis.Pass) (interface{}, error) {
	allows := directive.CollectAllows(pass, name)
	walker := &lockset.Walker{
		Info:    pass.TypesInfo,
		Fset:    pass.Fset,
		PkgName: directive.PkgLastElem(pass.Pkg.Path()),
	}

	guards := collectGuards(pass, allows)

	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, isFn := decl.(*ast.FuncDecl)
			if !isFn || fn.Body == nil {
				continue
			}
			checkFunc(pass, allows, walker, guards, fn)
		}
	}
	allows.ReportUnused(pass)
	return nil, nil
}

// collectGuards parses every //zbp:guardedby field annotation in the
// package, validates the named mutex, and exports facts for exported
// guarded fields.
func collectGuards(pass *analysis.Pass, allows *directive.AllowSet) map[types.Object]*guard {
	guards := make(map[types.Object]*guard)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, isSpec := n.(*ast.TypeSpec)
			if !isSpec {
				return true
			}
			st, isStruct := ts.Type.(*ast.StructType)
			if !isStruct {
				return true
			}
			for _, fld := range st.Fields.List {
				ann, muName := guardAnnotation(fld)
				if ann == nil {
					continue
				}
				if muName == "" {
					allows.Report(pass, ann, "malformed //zbp:guardedby: want //zbp:guardedby <mutex field>")
					continue
				}
				if !hasMutexField(pass, st, muName) {
					allows.Report(pass, ann, "//zbp:guardedby names %q, which is not a sync mutex field of %s", muName, ts.Name.Name)
					continue
				}
				g := &guard{
					owner:  ts.Name.Name,
					muName: muName,
					muKey:  lockset.FieldKey(pass.Pkg.Path(), ts.Name.Name, muName),
				}
				for _, nm := range fld.Names {
					obj := pass.TypesInfo.Defs[nm]
					if obj == nil {
						continue
					}
					fg := *g
					fg.field = nm.Name
					guards[obj] = &fg
					// Only exported fields cross package boundaries; the
					// fact store keys object facts by name, so exporting
					// unexported fields would collide same-named fields
					// of sibling types.
					if nm.IsExported() && pass.ExportObjectFact != nil {
						pass.ExportObjectFact(obj, &guardFact{Mutex: fg.muKey})
					}
				}
			}
			return true
		})
	}
	return guards
}

// guardAnnotation scans a struct field's doc and trailing comments for
// //zbp:guardedby, returning the directive comment and the named mutex
// ("" when the name is missing).
func guardAnnotation(fld *ast.Field) (*ast.Comment, string) {
	for _, cg := range []*ast.CommentGroup{fld.Doc, fld.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			kind, rest, ok := directive.Split(c)
			if !ok || kind != "guardedby" {
				continue
			}
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				return c, ""
			}
			return c, fields[0]
		}
	}
	return nil, ""
}

// hasMutexField reports whether the struct syntax declares a sync mutex
// field named muName, counting an embedded sync.Mutex as "Mutex".
func hasMutexField(pass *analysis.Pass, st *ast.StructType, muName string) bool {
	for _, fld := range st.Fields.List {
		t := pass.TypesInfo.TypeOf(fld.Type)
		if !lockset.IsSyncMutex(t) {
			continue
		}
		if len(fld.Names) == 0 { // embedded
			if muName == "Mutex" || muName == "RWMutex" {
				return true
			}
			continue
		}
		for _, nm := range fld.Names {
			if nm.Name == muName {
				return true
			}
		}
	}
	return false
}

// checkFunc walks one function: guarded accesses against the held set,
// held-at-exit for the unlock-on-all-paths rule, and //zbp:caller-holds
// resolution (this analyzer owns the directive's validation; lockorder
// consumes the same names silently).
func checkFunc(pass *analysis.Pass, allows *directive.AllowSet, walker *lockset.Walker, guards map[types.Object]*guard, fn *ast.FuncDecl) {
	fname := fn.Name.Name
	var entry []lockset.Lock
	for _, mu := range directive.CallerHolds(fn) {
		if mu == "" {
			allows.Report(pass, fn.Name, "malformed //zbp:caller-holds on %s: want //zbp:caller-holds <mutex>", fname)
			continue
		}
		key, ok := lockset.ResolveHold(pass.TypesInfo, pass.Pkg, fn, mu)
		if !ok {
			allows.Report(pass, fn.Name, "//zbp:caller-holds on %s names %q, which is neither a sync mutex field of the receiver nor a package-level sync var", fname, mu)
			continue
		}
		entry = append(entry, lockset.Lock{Key: key, Pos: fn.Name.Pos(), Synthetic: true})
	}

	walker.Walk(fn, entry, lockset.Hooks{
		Node: func(n ast.Node, held []lockset.Lock) {
			sel, isSel := n.(*ast.SelectorExpr)
			if !isSel {
				return
			}
			v, isVar := pass.TypesInfo.Uses[sel.Sel].(*types.Var)
			if !isVar || !v.IsField() {
				return
			}
			var muKey, muName, owner string
			if g := guards[v]; g != nil {
				muKey, muName, owner = g.muKey, g.muName, g.owner
			} else if v.Pkg() != nil && v.Pkg() != pass.Pkg && v.Exported() {
				var fact guardFact
				if pass.ImportObjectFact != nil && pass.ImportObjectFact(v, &fact) {
					muKey, muName, owner = fact.Mutex, keyTail(fact.Mutex), ""
				}
			}
			if muKey == "" || lockset.Held(held, muKey) {
				return
			}
			qual := v.Name()
			if owner != "" {
				qual = owner + "." + v.Name()
			}
			allows.Report(pass, sel, "%s accesses %s without holding %s (//zbp:guardedby %s); lock it here or annotate the function //zbp:caller-holds %s", fname, qual, muKey, muName, muName)
		},
		Exit: func(pos token.Pos, held []lockset.Lock) {
			for _, l := range held {
				if l.Deferred || l.Synthetic {
					continue
				}
				lp := pass.Fset.Position(l.Pos)
				allows.Report(pass, posRange(pos), "%s can exit with %s still held (locked at line %d); unlock on every path or defer the unlock", fname, l.Key, lp.Line)
			}
		},
	})
}

// keyTail returns the field name of a "pkg.Owner.mu" lock key, for
// message text when only the imported fact is available.
func keyTail(key string) string {
	if i := strings.LastIndexByte(key, '.'); i >= 0 {
		return key[i+1:]
	}
	return key
}

// posRange adapts a bare position (a return site) to analysis.Range.
type posRange token.Pos

func (p posRange) Pos() token.Pos { return token.Pos(p) }
func (p posRange) End() token.Pos { return token.Pos(p) }
