package lockorder

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"bulkpreload/internal/check/directive"
)

// lockOp classifies a sync mutex method call.
type lockOp int

// Mutex operations the walker updates held state on.
const (
	opLock lockOp = iota
	opRLock
	opUnlock
	opRUnlock
)

// heldLock is one held mutex.
type heldLock struct {
	key       string    // stable type-level identity, e.g. "jobq.Queue.mu"
	pos       token.Pos // acquisition site (directive position for synthetic locks)
	reader    bool      // acquired via RLock
	deferred  bool      // a defer mu.Unlock() covers it
	synthetic bool      // injected by //zbp:caller-holds; the caller releases it
}

// hooks receive walk events. Any field may be nil.
type hooks struct {
	// acquire fires at a Lock/RLock call site, before the lock joins
	// the held set (held is the prior state).
	acquire func(call *ast.CallExpr, l heldLock, held []heldLock)
	// node fires for every scanned expression/statement node with the
	// current held set. Lock-call internals and function-literal bodies
	// are not delivered through the enclosing walk.
	node func(n ast.Node, held []heldLock)
	// exit fires at every return statement and at a reachable function
	// end, with the still-held set (including deferred and synthetic
	// locks — the consumer filters).
	exit func(pos token.Pos, held []heldLock)
	// skipLits leaves function literals unwalked entirely. Summary
	// passes set it: a literal's effects belong to whoever runs the
	// closure, not to the function that merely builds it.
	skipLits bool
}

// walker walks the function bodies of one package, tracking which
// sync.Mutex / sync.RWMutex values are held at every point and
// approximating control flow the way a human reviewer does:
//
//   - if/else branches are walked independently and merged by union,
//     except that a branch ending in return/panic/break contributes
//     nothing to the fall-through state (the early-unlock-and-return
//     ladder in jobq verifies cleanly);
//   - loop and switch bodies are walked once with a cloned state;
//   - defer mu.Unlock() marks the lock deferred — still held for
//     blocking-under-lock checks, exempt from held-at-return checks;
//   - function literals are walked separately with an empty held set
//     (a closure's synchronization is its own);
//   - select communication clauses are scanned for sub-expressions
//     only, so the enclosing select — not its cases — is the one
//     blocking point hooks see.
//
// Lock identity is type-level, not alias-level: q.mu on any *Queue is
// the key "jobq.Queue.mu". That is the granularity a lock-order
// discipline is stated at (gVisor's checklocks makes the same call),
// and it keeps the walker honest about what it can actually prove.
type walker struct {
	info *types.Info
	fset *token.FileSet
	// pkgName is directive.PkgLastElem of the package under analysis,
	// the fallback namespace for local and unresolvable lock keys.
	pkgName string
}

// mutexOp recognizes call as a mutex operation and derives the lock
// key. Only methods of the sync package named Lock/RLock/Unlock/RUnlock
// qualify (sync.Mutex, sync.RWMutex, sync.Locker).
func (w *walker) mutexOp(call *ast.CallExpr) (op lockOp, key string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return 0, "", false
	}
	switch sel.Sel.Name {
	case "Lock":
		op = opLock
	case "RLock":
		op = opRLock
	case "Unlock":
		op = opUnlock
	case "RUnlock":
		op = opRUnlock
	default:
		return 0, "", false
	}
	fn, isFn := w.info.Uses[sel.Sel].(*types.Func)
	if !isFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return 0, "", false
	}
	return op, w.keyFor(sel.X), true
}

// keyFor derives the stable lock key of a mutex-valued expression:
// struct fields as "pkg.Owner.field", package-level vars as "pkg.name",
// locals as "pkg.name@line" (stable across re-typechecks), embedded
// sync.Mutex receivers as "pkg.Owner.Mutex", or as the owning
// variable's key plus ".Mutex" when the owner is an unnamed struct.
func (w *walker) keyFor(recv ast.Expr) string {
	recv = ast.Unparen(recv)
	t := w.info.TypeOf(recv)
	if !isSyncType(t) {
		// The method was selected through an embedded mutex: key by the
		// owning named type.
		if pkg, name := namedOf(t); name != "" {
			return pkg + "." + name + ".Mutex"
		}
		return w.varKey(recv) + ".Mutex"
	}
	return w.varKey(recv)
}

// varKey keys the variable or field recv names, falling back to the
// expression's line when it names neither.
func (w *walker) varKey(recv ast.Expr) string {
	switch r := recv.(type) {
	case *ast.SelectorExpr:
		v, isVar := w.info.Uses[r.Sel].(*types.Var)
		if !isVar || v.Pkg() == nil {
			return w.anonKey(recv)
		}
		if !v.IsField() {
			// Package-qualified or promoted package-level var.
			return directive.PkgLastElem(v.Pkg().Path()) + "." + v.Name()
		}
		if pkg, owner := namedOf(w.info.TypeOf(r.X)); owner != "" {
			return pkg + "." + owner + "." + v.Name()
		}
		return directive.PkgLastElem(v.Pkg().Path()) + "." + v.Name()
	case *ast.Ident:
		obj := w.info.Uses[r]
		if obj == nil || obj.Pkg() == nil {
			return w.anonKey(recv)
		}
		if obj.Parent() == obj.Pkg().Scope() {
			return directive.PkgLastElem(obj.Pkg().Path()) + "." + obj.Name()
		}
		// Function-local mutex: disambiguate same-named locals by the
		// declaration line (stable across separate type-checks).
		return fmt.Sprintf("%s.%s@%d", w.pkgName, obj.Name(), w.fset.Position(obj.Pos()).Line)
	default:
		return w.anonKey(recv)
	}
}

func (w *walker) anonKey(e ast.Expr) string {
	return fmt.Sprintf("%s.mutex@%d", w.pkgName, w.fset.Position(e.Pos()).Line)
}

// fieldKey is the key a guarded field's mutex resolves to: the sibling
// mutex field muName of the named type owner in package pkgPath.
func fieldKey(pkgPath, owner, muName string) string {
	return directive.PkgLastElem(pkgPath) + "." + owner + "." + muName
}

// isSyncType reports whether t (possibly behind a pointer) is a named
// type of the sync package — Mutex, RWMutex, or the Locker interface.
func isSyncType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "sync"
}

// namedOf returns (PkgLastElem, type name) of t behind at most one
// pointer, or ("", "") when t is not a named type.
func namedOf(t types.Type) (pkg, name string) {
	if t == nil {
		return "", ""
	}
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed || named.Obj() == nil || named.Obj().Pkg() == nil {
		return "", ""
	}
	return directive.PkgLastElem(named.Obj().Pkg().Path()), named.Obj().Name()
}

// resolveHold maps a //zbp:caller-holds name on fn to its lock key: a
// mutex field of fn's receiver type, or a package-level sync var of the
// declaring package. ok is false when the name resolves to neither.
func resolveHold(info *types.Info, pkg *types.Package, fn *ast.FuncDecl, name string) (string, bool) {
	if name == "" {
		return "", false
	}
	if fn.Recv != nil && len(fn.Recv.List) > 0 {
		t := info.TypeOf(fn.Recv.List[0].Type)
		if p, isPtr := t.(*types.Pointer); isPtr {
			t = p.Elem()
		}
		if named, isNamed := t.(*types.Named); isNamed {
			if st, isStruct := named.Underlying().(*types.Struct); isStruct {
				for i := 0; i < st.NumFields(); i++ {
					f := st.Field(i)
					if f.Name() == name && isSyncType(f.Type()) {
						return fieldKey(pkg.Path(), named.Obj().Name(), name), true
					}
				}
			}
		}
	}
	if v, isVar := pkg.Scope().Lookup(name).(*types.Var); isVar && isSyncType(v.Type()) {
		return directive.PkgLastElem(pkg.Path()) + "." + name, true
	}
	return "", false
}

// holds reports whether the set holds key (reader or writer).
func holds(held []heldLock, key string) bool {
	for _, l := range held {
		if l.key == key {
			return true
		}
	}
	return false
}

// walk traverses fn's body (and, afterwards, every function literal it
// contains, each with an empty held set), firing hooks. entry seeds the
// held set — synthetic locks from //zbp:caller-holds.
func (w *walker) walk(fn *ast.FuncDecl, entry []heldLock, h hooks) {
	if fn.Body == nil {
		return
	}
	st := &walkState{w: w, h: h, held: append([]heldLock(nil), entry...)}
	if !st.stmt(fn.Body) {
		st.exit(fn.Body.Rbrace)
	}
	if h.skipLits {
		return
	}
	for i := 0; i < len(st.lits); i++ {
		lit := st.lits[i]
		st.held = nil
		if !st.stmt(lit.Body) {
			st.exit(lit.Body.Rbrace)
		}
	}
}

type walkState struct {
	w    *walker
	h    hooks
	held []heldLock
	lits []*ast.FuncLit
}

func (s *walkState) exit(pos token.Pos) {
	if s.h.exit != nil {
		s.h.exit(pos, s.held)
	}
}

func (s *walkState) node(n ast.Node) {
	if s.h.node != nil {
		s.h.node(n, s.held)
	}
}

func (s *walkState) acquire(call *ast.CallExpr, key string, reader bool) {
	l := heldLock{key: key, pos: call.Pos(), reader: reader}
	if s.h.acquire != nil {
		s.h.acquire(call, l, s.held)
	}
	s.held = append(s.held, l)
}

// release drops the most recent holding of key (ignoring a release of
// something not held — the conservative choice for helper-split
// lock/unlock pairs the walker cannot see across).
func (s *walkState) release(key string) {
	for i := len(s.held) - 1; i >= 0; i-- {
		if s.held[i].key == key {
			s.held = append(s.held[:i:i], s.held[i+1:]...)
			return
		}
	}
}

func (s *walkState) markDeferred(key string) {
	for i := len(s.held) - 1; i >= 0; i-- {
		if s.held[i].key == key {
			s.held[i].deferred = true
			return
		}
	}
}

func clone(held []heldLock) []heldLock { return append([]heldLock(nil), held...) }

// union merges the held sets of two joining paths: a lock held on
// either path is (possibly) held after the join.
func union(a, b []heldLock) []heldLock {
	out := clone(a)
	for _, l := range b {
		found := false
		for i := range out {
			if out[i].key == l.key {
				out[i].deferred = out[i].deferred || l.deferred
				found = true
				break
			}
		}
		if !found {
			out = append(out, l)
		}
	}
	return out
}

// scan inspects an expression (or simple statement) tree in evaluation
// order, intercepting mutex operations and function literals and
// delivering every other node through the node hook.
func (s *walkState) scan(n ast.Node) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			s.lits = append(s.lits, x)
			return false
		case *ast.CallExpr:
			if op, key, ok := s.w.mutexOp(x); ok {
				switch op {
				case opLock:
					s.acquire(x, key, false)
				case opRLock:
					s.acquire(x, key, true)
				case opUnlock, opRUnlock:
					s.release(key)
				}
				return false
			}
			s.node(x)
			return true
		default:
			if x != nil {
				s.node(x)
			}
			return true
		}
	})
}

// stmt walks one statement; it reports whether control provably does
// not continue past it (return, panic, break/continue/goto).
func (s *walkState) stmt(stmt ast.Stmt) bool {
	switch st := stmt.(type) {
	case nil:
		return false
	case *ast.BlockStmt:
		for _, inner := range st.List {
			if s.stmt(inner) {
				return true // the rest is unreachable on this path
			}
		}
		return false
	case *ast.LabeledStmt:
		return s.stmt(st.Stmt)
	case *ast.ReturnStmt:
		s.scan(st)
		s.exit(st.Pos())
		return true
	case *ast.BranchStmt:
		return st.Tok != token.FALLTHROUGH
	case *ast.ExprStmt:
		s.scan(st)
		return isTerminalCall(s.w.info, st.X)
	case *ast.DeferStmt:
		if op, key, ok := s.w.mutexOp(st.Call); ok && (op == opUnlock || op == opRUnlock) {
			s.markDeferred(key)
			return false
		}
		// The deferred call runs at return, not here: scan only the
		// immediately evaluated arguments; a deferred closure body is
		// walked like any other literal.
		for _, arg := range st.Call.Args {
			s.scan(arg)
		}
		if lit, isLit := st.Call.Fun.(*ast.FuncLit); isLit {
			s.lits = append(s.lits, lit)
		}
		return false
	case *ast.GoStmt:
		// Blocking happens on the new goroutine, not at the go
		// statement; same argument-only treatment as defer.
		for _, arg := range st.Call.Args {
			s.scan(arg)
		}
		if lit, isLit := st.Call.Fun.(*ast.FuncLit); isLit {
			s.lits = append(s.lits, lit)
		}
		return false
	case *ast.IfStmt:
		s.stmt(st.Init)
		s.scan(st.Cond)
		saved := clone(s.held)
		bodyTerm := s.stmt(st.Body)
		bodyHeld := s.held
		s.held = clone(saved)
		elseTerm := false
		if st.Else != nil {
			elseTerm = s.stmt(st.Else)
		}
		elseHeld := s.held
		switch {
		case bodyTerm && elseTerm:
			return true
		case bodyTerm:
			s.held = elseHeld
		case elseTerm:
			s.held = bodyHeld
		default:
			s.held = union(bodyHeld, elseHeld)
		}
		return false
	case *ast.ForStmt:
		s.stmt(st.Init)
		s.scan(st.Cond)
		saved := clone(s.held)
		term := s.stmt(st.Body)
		s.stmt(st.Post)
		if term {
			s.held = saved
		} else {
			s.held = union(saved, s.held)
		}
		return false
	case *ast.RangeStmt:
		s.node(st) // range-over-channel is a blocking point
		s.scan(st.X)
		s.scan(st.Key)
		s.scan(st.Value)
		saved := clone(s.held)
		term := s.stmt(st.Body)
		if term {
			s.held = saved
		} else {
			s.held = union(saved, s.held)
		}
		return false
	case *ast.SwitchStmt:
		s.stmt(st.Init)
		s.scan(st.Tag)
		return s.clauses(st.Body, false)
	case *ast.TypeSwitchStmt:
		s.stmt(st.Init)
		s.stmt(st.Assign)
		return s.clauses(st.Body, false)
	case *ast.SelectStmt:
		s.node(st) // the select, not its cases, is the blocking point
		return s.clauses(st.Body, true)
	default:
		// Assignments, declarations, sends, inc/dec, empty statements:
		// plain expression scans.
		s.scan(stmt)
		return false
	}
}

// clauses walks switch/select case bodies, each from a clone of the
// entry state, and merges the non-terminating ends. exhaustive marks
// constructs that always execute some clause (select); an expression
// switch without a default can skip every case.
func (s *walkState) clauses(body *ast.BlockStmt, exhaustive bool) bool {
	saved := clone(s.held)
	var ends [][]heldLock
	hasDefault := false
	allTerm := true
	for _, raw := range body.List {
		s.held = clone(saved)
		var stmts []ast.Stmt
		switch c := raw.(type) {
		case *ast.CaseClause:
			if c.List == nil {
				hasDefault = true
			}
			for _, e := range c.List {
				s.scan(e)
			}
			stmts = c.Body
		case *ast.CommClause:
			if c.Comm == nil {
				hasDefault = true
			}
			s.commExprs(c.Comm)
			stmts = c.Body
		}
		term := false
		for _, inner := range stmts {
			if s.stmt(inner) {
				term = true
				break
			}
		}
		if !term {
			allTerm = false
			ends = append(ends, s.held)
		}
	}
	covered := exhaustive || hasDefault
	if covered && allTerm && len(body.List) > 0 {
		return true
	}
	merged := []heldLock(nil)
	if !covered {
		merged = saved // some path skips every clause
	}
	first := merged == nil
	for _, e := range ends {
		if first {
			merged = clone(e)
			first = false
		} else {
			merged = union(merged, e)
		}
	}
	if merged == nil {
		merged = saved
	}
	s.held = merged
	return false
}

// commExprs scans a select communication's sub-expressions without
// delivering the send/receive itself as a blocking node (the enclosing
// select already was).
func (s *walkState) commExprs(comm ast.Stmt) {
	switch c := comm.(type) {
	case nil:
	case *ast.SendStmt:
		s.scan(c.Chan)
		s.scan(c.Value)
	case *ast.AssignStmt:
		for _, l := range c.Lhs {
			s.scan(l)
		}
		for _, r := range c.Rhs {
			if u, isRecv := ast.Unparen(r).(*ast.UnaryExpr); isRecv && u.Op == token.ARROW {
				s.scan(u.X)
				continue
			}
			s.scan(r)
		}
	case *ast.ExprStmt:
		if u, isRecv := ast.Unparen(c.X).(*ast.UnaryExpr); isRecv && u.Op == token.ARROW {
			s.scan(u.X)
			return
		}
		s.scan(c.X)
	default:
		s.stmt(comm)
	}
}

// isTerminalCall recognizes expression statements that abort control
// flow: panic(...) and os.Exit(...).
func isTerminalCall(info *types.Info, e ast.Expr) bool {
	call, isCall := ast.Unparen(e).(*ast.CallExpr)
	if !isCall {
		return false
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if b, isBuiltin := info.Uses[fun].(*types.Builtin); isBuiltin {
			return b.Name() == "panic"
		}
	case *ast.SelectorExpr:
		if fn, isFn := info.Uses[fun.Sel].(*types.Func); isFn && fn.Pkg() != nil {
			return fn.Pkg().Path() == "os" && fn.Name() == "Exit"
		}
	}
	return false
}
