package lockorder

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"bulkpreload/internal/check/directive"
)

// guardFact marks an exported guarded field; Mutex is the full lock key
// ("pkg.Owner.mu") access sites must hold.
type guardFact struct {
	Mutex string
}

func (*guardFact) AFact()           {}
func (f *guardFact) String() string { return "guardedby " + f.Mutex }

// guard is one annotated field's contract.
type guard struct {
	owner  string // declaring struct type
	muName string
	muKey  string // lock key accesses must hold
}

// collectGuards parses every //zbp:guardedby field annotation in the
// package, validates the named mutex, and exports facts for exported
// guarded fields.
func (c *checker) collectGuards() {
	for _, f := range c.pass.Files {
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
				switch {
				case ann == nil:
					continue
				case muName == "":
					c.allows.Report(c.pass, ann, "malformed //zbp:guardedby: want //zbp:guardedby <mutex field>")
					continue
				case !c.hasMutexField(st, muName):
					c.allows.Report(c.pass, ann, "//zbp:guardedby names %q, which is not a sync mutex field of %s", muName, ts.Name.Name)
					continue
				}
				g := &guard{owner: ts.Name.Name, muName: muName, muKey: fieldKey(c.pass.Pkg.Path(), ts.Name.Name, muName)}
				for _, nm := range fld.Names {
					obj := c.pass.TypesInfo.Defs[nm]
					if obj == nil {
						continue
					}
					c.guards[obj] = g
					// Only exported fields cross package boundaries; the
					// fact store keys object facts by name, so exporting
					// unexported fields would collide same-named fields
					// of sibling types.
					if nm.IsExported() && c.pass.ExportObjectFact != nil {
						c.pass.ExportObjectFact(obj, &guardFact{Mutex: g.muKey})
					}
				}
			}
			return true
		})
	}
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
			if fields := strings.Fields(rest); len(fields) > 0 {
				return c, fields[0]
			}
			return c, ""
		}
	}
	return nil, ""
}

// hasMutexField reports whether the struct syntax declares a sync mutex
// field named muName, counting an embedded sync.Mutex as "Mutex".
func (c *checker) hasMutexField(st *ast.StructType, muName string) bool {
	for _, fld := range st.Fields.List {
		if !isSyncType(c.pass.TypesInfo.TypeOf(fld.Type)) {
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

// checkGuarded reports a guarded-field access made without the field's
// mutex in the held set. The guard comes from this package's
// annotations or, for an exported field of another package, its fact.
func (c *checker) checkGuarded(fname string, sel *ast.SelectorExpr, held []heldLock) {
	v, isVar := c.pass.TypesInfo.Uses[sel.Sel].(*types.Var)
	if !isVar || !v.IsField() {
		return
	}
	g := c.guards[v]
	if g == nil && v.Pkg() != nil && v.Pkg() != c.pass.Pkg && v.Exported() {
		var fact guardFact
		if c.pass.ImportObjectFact != nil && c.pass.ImportObjectFact(v, &fact) {
			g = &guard{muName: fact.Mutex[strings.LastIndexByte(fact.Mutex, '.')+1:], muKey: fact.Mutex}
		}
	}
	if g == nil || holds(held, g.muKey) {
		return
	}
	qual := v.Name()
	if g.owner != "" {
		qual = g.owner + "." + v.Name()
	}
	c.allows.Report(c.pass, sel, "%s accesses %s without holding %s (//zbp:guardedby %s); lock it here or annotate the function //zbp:caller-holds %s", fname, qual, g.muKey, g.muName, g.muName)
}

// checkExit reports the locks a function can still hold at a return or
// at its end: a lock taken without defer must be released on every
// path. Deferred and //zbp:caller-holds locks are exempt.
func (c *checker) checkExit(fname string, pos token.Pos, held []heldLock) {
	for _, l := range held {
		if l.deferred || l.synthetic {
			continue
		}
		c.allows.Report(c.pass, rangeAt(pos), "%s can exit with %s still held (locked at line %d); unlock on every path or defer the unlock", fname, l.key, c.pass.Fset.Position(l.pos).Line)
	}
}

// rangeAt adapts a bare position (a return site) to analysis.Range.
type rangeAt token.Pos

func (p rangeAt) Pos() token.Pos { return token.Pos(p) }
func (p rangeAt) End() token.Pos { return token.Pos(p) }
