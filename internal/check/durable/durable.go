// Package durable turns the service's crash-durability protocol — the
// reason an acknowledged Enqueue survives kill -9 — into an ordered-
// effects check on every function annotated //zbp:durable:
//
//   - journal-append ordering: once a durable function writes to a file
//     or stream, no in-memory state transition may become observable
//     until an fsync lands. Acknowledging (or applying) a record that
//     only exists in the page cache is the classic lost-write bug.
//   - atomic-install ordering: a temp file created with os.CreateTemp
//     must move through write → Sync → Rename → directory-Sync, in that
//     order, on every non-error path. Renaming before the sync can
//     install a torn file; skipping the directory sync can lose the
//     rename itself.
//
// The check walks branches separately and merges pessimistically, so an
// ordering violation on any path is a finding; paths that exit through
// an `err != nil` guard are cleanup, not protocol, and are exempt from
// the completeness rules (the violation rules still apply inside them).
// Callee effects splice in by summary — same-package recursively,
// cross-package through the facts store — so jobq.Queue.append keeps
// its guarantee even though the framing, the write, and the fsync live
// three functions apart.
package durable

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"

	"bulkpreload/internal/check/directive"
)

const name = "durable"

// Effect kinds, in the order the protocol wants them.
const (
	fxCreateTemp = "createtemp" // os.CreateTemp
	fxWrite      = "write"      // file/stream write (incl. encoders)
	fxSync       = "sync"       // File.Sync on a written handle
	fxRename     = "rename"     // os.Rename
	fxDirSync    = "dirsync"    // File.Sync on a read-only os.Open handle
	fxMutate     = "mutate"     // in-memory state transition
)

// maxEffects caps a summary; past this the sequence carries no more
// ordering information.
const maxEffects = 32

// durFact is a function's effect sequence, exported so durable callers
// in other packages can splice it in.
type durFact struct {
	Effects []string
}

func (*durFact) AFact()           {}
func (f *durFact) String() string { return strings.Join(f.Effects, ",") }

// Analyzer is the durable analyzer.
var Analyzer = &analysis.Analyzer{
	Name: name,
	Doc: "//zbp:durable functions must order effects per the crash-durability protocol: " +
		"journal writes reach Sync before state mutates; temp files go write -> Sync -> " +
		"Rename -> directory Sync on every non-error path",
	Run:       run,
	FactTypes: []analysis.Fact{(*durFact)(nil)},
}

// dstate is the protocol state at one program point.
type dstate struct {
	synced  bool // some write has been fsynced
	pending bool // a write has happened since the last fsync
	// temp-file installation progress: 0 none, 1 created, 2 written,
	// 3 synced, 4 renamed, 5 dirsynced.
	temp int
}

// merge joins two branch states pessimistically: synced only if both
// paths synced, pending if either path has an unsynced write, temp at
// the least-progressed stage.
func merge(a, b dstate) dstate {
	out := dstate{synced: a.synced && b.synced, pending: a.pending || b.pending, temp: a.temp}
	if b.temp < out.temp {
		out.temp = b.temp
	}
	return out
}

type checker struct {
	pass   *analysis.Pass
	allows *directive.AllowSet
	decls  map[types.Object]*ast.FuncDecl
	memo   map[types.Object][]string
	inProg map[types.Object]bool
	errT   *types.Interface
}

func run(pass *analysis.Pass) (interface{}, error) {
	c := &checker{
		pass:   pass,
		allows: directive.CollectAllows(pass, name),
		decls:  make(map[types.Object]*ast.FuncDecl),
		memo:   make(map[types.Object][]string),
		inProg: make(map[types.Object]bool),
		errT:   types.Universe.Lookup("error").Type().Underlying().(*types.Interface),
	}

	var durables []*ast.FuncDecl
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, isFn := decl.(*ast.FuncDecl)
			if !isFn {
				continue
			}
			if obj := pass.TypesInfo.Defs[fn.Name]; obj != nil {
				c.decls[obj] = fn
			}
			if directive.HasDurable(fn) {
				durables = append(durables, fn)
			}
		}
	}

	// Export every function's effect summary (durable or not) so
	// downstream durable callers can splice it; empty summaries are
	// skipped.
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, isFn := decl.(*ast.FuncDecl)
			if !isFn {
				continue
			}
			obj := pass.TypesInfo.Defs[fn.Name]
			if obj == nil {
				continue
			}
			if fx := c.effectsOf(obj); len(fx) > 0 && pass.ExportObjectFact != nil {
				pass.ExportObjectFact(obj, &durFact{Effects: fx})
			}
		}
	}

	for _, fn := range durables {
		c.checkDurable(fn)
	}
	c.allows.ReportUnused(pass)
	return nil, nil
}

// effectsOf returns obj's memoized effect sequence: direct effects plus
// callee splices, preorder over every branch (the summary is a may-
// sequence — the precise branch-aware ordering check only runs inside
// annotated bodies).
func (c *checker) effectsOf(obj types.Object) []string {
	if fx, done := c.memo[obj]; done {
		return fx
	}
	if c.inProg[obj] {
		return nil // recursion: the first visit owns the summary
	}
	if obj.Pkg() != nil && obj.Pkg() != c.pass.Pkg {
		var fact durFact
		if c.pass.ImportObjectFact != nil && c.pass.ImportObjectFact(obj, &fact) {
			c.memo[obj] = fact.Effects
			return fact.Effects
		}
		c.memo[obj] = nil
		return nil
	}
	fn := c.decls[obj]
	if fn == nil || fn.Body == nil {
		c.memo[obj] = nil
		return nil
	}
	c.inProg[obj] = true
	var fx []string
	readonly := readonlyHandles(c.pass, fn)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if len(fx) >= maxEffects {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // the closure's effects run on its caller's clock
		case *ast.GoStmt, *ast.DeferStmt:
			return false // not synchronous at this point
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE {
				for _, lhs := range n.Lhs {
					if escapes(c.pass, fn, lhs) {
						fx = append(fx, fxMutate)
					}
				}
			}
		case *ast.IncDecStmt:
			if escapes(c.pass, fn, n.X) {
				fx = append(fx, fxMutate)
			}
		case *ast.CallExpr:
			if kind, ok := c.classifyCall(n, readonly); ok {
				fx = append(fx, kind)
				return true
			}
			if callee := calleeOf(c.pass.TypesInfo, n); callee != nil {
				fx = append(fx, c.effectsOf(callee)...)
			}
		}
		return true
	})
	if len(fx) > maxEffects {
		fx = fx[:maxEffects]
	}
	delete(c.inProg, obj)
	c.memo[obj] = fx
	return fx
}

// checkDurable runs the branch-aware ordering check over one annotated
// body.
func (c *checker) checkDurable(fn *ast.FuncDecl) {
	if fn.Body == nil {
		return
	}
	w := &dwalk{c: c, fn: fn, fname: fn.Name.Name, readonly: readonlyHandles(c.pass, fn)}
	if !w.stmt(fn.Body) {
		w.complete(fn.Body.Rbrace)
	}
	if !w.sawEffect {
		c.allows.Report(c.pass, fn.Name, "%s is annotated //zbp:durable but has no durability-relevant effect (no write, sync, rename, or state transition); drop the annotation", w.fname)
	}
}

// dwalk is the per-function ordering walk.
type dwalk struct {
	c         *checker
	fn        *ast.FuncDecl
	fname     string
	readonly  map[types.Object]bool
	st        dstate
	errDepth  int // > 0 inside an `err != nil` cleanup branch
	sawEffect bool
}

// apply advances the protocol state by one effect, reporting ordering
// violations at the node that caused them.
func (w *dwalk) apply(n ast.Node, kind string) {
	w.sawEffect = true
	st := &w.st
	switch kind {
	case fxCreateTemp:
		st.temp = 1
	case fxWrite:
		st.pending = true
		if st.temp == 1 {
			st.temp = 2
		}
	case fxSync:
		st.pending = false
		st.synced = true
		if st.temp == 1 || st.temp == 2 {
			st.temp = 3
		}
	case fxRename:
		switch st.temp {
		case 1, 2:
			w.c.allows.Report(w.c.pass, n, "%s renames the temp file before Sync; a crash after the rename can install a torn or empty file — Sync must precede Rename", w.fname)
			st.temp = 4
		case 3:
			st.temp = 4
		}
	case fxDirSync:
		switch st.temp {
		case 4:
			st.temp = 5
		case 1, 2, 3:
			w.c.allows.Report(w.c.pass, n, "%s syncs the directory before the rename; the directory entry being made durable does not exist yet — Rename must precede the directory Sync", w.fname)
		}
	case fxMutate:
		switch {
		case st.pending:
			w.c.allows.Report(w.c.pass, n, "%s makes an in-memory state transition before the journal write reaches Sync; a crash here forgets state the caller may already observe — Sync first", w.fname)
		case !st.synced:
			w.c.allows.Report(w.c.pass, n, "%s makes an in-memory state transition with no synced journal write in this function; a //zbp:durable function must journal before it mutates", w.fname)
		}
	}
}

// complete enforces the end-of-path rules at a non-error exit.
func (w *dwalk) complete(pos token.Pos) {
	st := w.st
	if st.pending {
		w.c.allows.Report(w.c.pass, posRange(pos), "%s can return with a journal write that never reached Sync; an acknowledged record would be lost on crash", w.fname)
	}
	switch st.temp {
	case 1, 2:
		w.c.allows.Report(w.c.pass, posRange(pos), "%s can return with the temp file never synced; the atomic-install sequence is write -> Sync -> Rename -> directory Sync", w.fname)
	case 3:
		w.c.allows.Report(w.c.pass, posRange(pos), "%s can return with the temp file synced but never renamed into place; the new state is never installed", w.fname)
	case 4:
		w.c.allows.Report(w.c.pass, posRange(pos), "%s can return without syncing the directory after the rename; the rename itself can be lost on crash", w.fname)
	}
}

// scan applies effects from an expression-bearing statement or
// expression, preorder, pruning closures and deferred work.
func (w *dwalk) scan(n ast.Node) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			return false
		case *ast.GoStmt, *ast.DeferStmt:
			return false
		case *ast.AssignStmt:
			if x.Tok != token.DEFINE {
				for _, lhs := range x.Lhs {
					if escapes(w.c.pass, w.fn, lhs) {
						w.apply(x, fxMutate)
					}
				}
			}
		case *ast.IncDecStmt:
			if escapes(w.c.pass, w.fn, x.X) {
				w.apply(x, fxMutate)
			}
		case *ast.CallExpr:
			if kind, ok := w.c.classifyCall(x, w.readonly); ok {
				w.apply(x, kind)
				return true
			}
			if callee := calleeOf(w.c.pass.TypesInfo, x); callee != nil {
				for _, kind := range w.c.effectsOf(callee) {
					w.apply(x, kind)
				}
			}
		}
		return true
	})
}

// stmt walks one statement, branch-aware; reports whether control
// provably does not continue past it.
func (w *dwalk) stmt(stmt ast.Stmt) bool {
	switch st := stmt.(type) {
	case nil:
		return false
	case *ast.BlockStmt:
		for _, inner := range st.List {
			if w.stmt(inner) {
				return true
			}
		}
		return false
	case *ast.LabeledStmt:
		return w.stmt(st.Stmt)
	case *ast.ReturnStmt:
		for _, e := range st.Results {
			w.scan(e)
		}
		if w.errDepth == 0 {
			w.complete(st.Pos())
		}
		return true
	case *ast.BranchStmt:
		return st.Tok != token.FALLTHROUGH
	case *ast.IfStmt:
		w.stmt(st.Init)
		w.scan(st.Cond)
		errThen, errElse := w.errBranches(st.Cond)
		saved := w.st
		if errThen {
			w.errDepth++
		}
		thenTerm := w.stmt(st.Body)
		if errThen {
			w.errDepth--
		}
		thenSt := w.st
		w.st = saved
		elseTerm := false
		if st.Else != nil {
			if errElse {
				w.errDepth++
			}
			elseTerm = w.stmt(st.Else)
			if errElse {
				w.errDepth--
			}
		}
		elseSt := w.st
		switch {
		case thenTerm && elseTerm:
			return true
		case thenTerm:
			w.st = elseSt
		case elseTerm:
			w.st = thenSt
		default:
			w.st = merge(thenSt, elseSt)
		}
		return false
	case *ast.ForStmt:
		w.stmt(st.Init)
		w.scan(st.Cond)
		saved := w.st
		term := w.stmt(st.Body)
		w.stmt(st.Post)
		if term {
			w.st = saved
		} else {
			w.st = merge(saved, w.st)
		}
		return false
	case *ast.RangeStmt:
		w.scan(st.X)
		saved := w.st
		term := w.stmt(st.Body)
		if term {
			w.st = saved
		} else {
			w.st = merge(saved, w.st)
		}
		return false
	case *ast.SwitchStmt:
		w.stmt(st.Init)
		w.scan(st.Tag)
		return w.clauses(st.Body, false)
	case *ast.TypeSwitchStmt:
		w.stmt(st.Init)
		w.stmt(st.Assign)
		return w.clauses(st.Body, false)
	case *ast.SelectStmt:
		return w.clauses(st.Body, true)
	case *ast.ExprStmt:
		w.scan(st)
		return isTerminalCall(w.c.pass.TypesInfo, st.X)
	case *ast.GoStmt, *ast.DeferStmt:
		return false
	default:
		w.scan(stmt)
		return false
	}
}

// clauses walks switch/select cases from a cloned state each and merges
// the survivors, mirroring lockorder's held-lock walker.
func (w *dwalk) clauses(body *ast.BlockStmt, exhaustive bool) bool {
	saved := w.st
	var ends []dstate
	hasDefault := false
	allTerm := true
	for _, raw := range body.List {
		w.st = saved
		var stmts []ast.Stmt
		switch cl := raw.(type) {
		case *ast.CaseClause:
			if cl.List == nil {
				hasDefault = true
			}
			for _, e := range cl.List {
				w.scan(e)
			}
			stmts = cl.Body
		case *ast.CommClause:
			if cl.Comm == nil {
				hasDefault = true
			}
			w.stmt(cl.Comm)
			stmts = cl.Body
		}
		term := false
		for _, inner := range stmts {
			if w.stmt(inner) {
				term = true
				break
			}
		}
		if !term {
			allTerm = false
			ends = append(ends, w.st)
		}
	}
	covered := exhaustive || hasDefault
	if covered && allTerm && len(body.List) > 0 {
		return true
	}
	out := saved
	first := covered // when covered, the first surviving clause seeds the merge
	for _, e := range ends {
		if first {
			out = e
			first = false
		} else {
			out = merge(out, e)
		}
	}
	w.st = out
	return false
}

// errBranches classifies an if condition: (then-is-error, else-is-error)
// for the `err != nil` / `err == nil` cleanup-guard idioms.
func (w *dwalk) errBranches(cond ast.Expr) (bool, bool) {
	bin, isBin := ast.Unparen(cond).(*ast.BinaryExpr)
	if !isBin {
		return false, false
	}
	isErrNil := func(x, y ast.Expr) bool {
		if id, isID := ast.Unparen(y).(*ast.Ident); !isID || id.Name != "nil" {
			return false
		}
		t := w.c.pass.TypesInfo.TypeOf(x)
		return t != nil && types.Implements(t, w.c.errT)
	}
	errCmp := isErrNil(bin.X, bin.Y) || isErrNil(bin.Y, bin.X)
	if !errCmp {
		return false, false
	}
	switch bin.Op {
	case token.NEQ:
		return true, false
	case token.EQL:
		return false, true
	}
	return false, false
}

// readonlyHandles pre-scans a function for `d, err := os.Open(dir)`
// handles: a Sync on one of these is a directory sync (provenance: the
// handle was opened read-only and the protocol's only reason to Sync it
// is entry durability), not a data-file sync.
func readonlyHandles(pass *analysis.Pass, fn *ast.FuncDecl) map[types.Object]bool {
	opened := make(map[types.Object]bool)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		asg, isAsg := n.(*ast.AssignStmt)
		if !isAsg || len(asg.Rhs) != 1 {
			return true
		}
		call, isCall := ast.Unparen(asg.Rhs[0]).(*ast.CallExpr)
		if !isCall {
			return true
		}
		callee := calleeOf(pass.TypesInfo, call)
		if callee == nil || callee.Pkg() == nil || callee.Pkg().Path() != "os" || callee.Name() != "Open" {
			return true
		}
		if id, isID := asg.Lhs[0].(*ast.Ident); isID {
			if obj := pass.TypesInfo.Defs[id]; obj != nil {
				opened[obj] = true
			} else if obj := pass.TypesInfo.Uses[id]; obj != nil {
				opened[obj] = true
			}
		}
		return true
	})
	// A handle that is ever written through is a data file after all.
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, isCall := n.(*ast.CallExpr)
		if !isCall {
			return true
		}
		sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !isSel {
			return true
		}
		switch sel.Sel.Name {
		case "Write", "WriteString", "WriteAt", "ReadFrom":
			if id, isID := ast.Unparen(sel.X).(*ast.Ident); isID {
				delete(opened, pass.TypesInfo.Uses[id])
			}
		}
		return true
	})
	return opened
}

// classifyCall recognizes direct protocol effects by callee identity.
func (c *checker) classifyCall(call *ast.CallExpr, readonly map[types.Object]bool) (string, bool) {
	fn := calleeOf(c.pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return "", false
	}
	sig, _ := fn.Type().(*types.Signature)
	hasRecv := sig != nil && sig.Recv() != nil
	switch fn.Pkg().Path() {
	case "os":
		if hasRecv {
			switch fn.Name() {
			case "Sync":
				if sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr); isSel {
					if id, isID := ast.Unparen(sel.X).(*ast.Ident); isID && readonly[c.pass.TypesInfo.Uses[id]] {
						return fxDirSync, true
					}
				}
				return fxSync, true
			case "Write", "WriteString", "WriteAt", "ReadFrom":
				return fxWrite, true
			}
			return "", false
		}
		switch fn.Name() {
		case "Rename":
			return fxRename, true
		case "CreateTemp":
			return fxCreateTemp, true
		case "WriteFile":
			return fxWrite, true
		}
	case "io":
		if fn.Name() == "WriteString" || fn.Name() == "Copy" {
			return fxWrite, true
		}
	case "fmt":
		if strings.HasPrefix(fn.Name(), "Fprint") {
			return fxWrite, true
		}
	case "encoding/gob", "encoding/json":
		if hasRecv && fn.Name() == "Encode" {
			return fxWrite, true
		}
	case "encoding/binary":
		if fn.Name() == "Write" {
			return fxWrite, true
		}
	}
	if hasRecv {
		if _, isIface := sig.Recv().Type().Underlying().(*types.Interface); isIface {
			switch fn.Name() {
			case "Write", "WriteString", "ReadFrom":
				return fxWrite, true
			}
		}
	}
	return "", false
}

// escapes reports whether an assignment target reaches state outside
// the function: a non-local identifier, or any write through a pointer,
// slice, or map.
func escapes(pass *analysis.Pass, fn *ast.FuncDecl, lhs ast.Expr) bool {
	e := ast.Unparen(lhs)
	for {
		switch x := e.(type) {
		case *ast.Ident:
			if x.Name == "_" {
				return false
			}
			obj := pass.TypesInfo.Uses[x]
			if obj == nil {
				return false
			}
			return obj.Pos() < fn.Pos() || obj.Pos() >= fn.End()
		case *ast.SelectorExpr:
			if t := pass.TypesInfo.TypeOf(x.X); t != nil {
				if _, isPtr := t.Underlying().(*types.Pointer); isPtr {
					return true
				}
			}
			e = ast.Unparen(x.X)
		case *ast.StarExpr:
			return true
		case *ast.IndexExpr:
			if t := pass.TypesInfo.TypeOf(x.X); t != nil {
				switch t.Underlying().(type) {
				case *types.Slice, *types.Map, *types.Pointer:
					return true
				}
			}
			e = ast.Unparen(x.X)
		default:
			return false
		}
	}
}

// calleeOf resolves a call's static callee, or nil for builtins,
// conversions, and computed function values.
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// isTerminalCall recognizes panic(...) and os.Exit(...).
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

// posRange adapts a bare position to analysis.Range.
type posRange token.Pos

func (p posRange) Pos() token.Pos { return token.Pos(p) }
func (p posRange) End() token.Pos { return token.Pos(p) }
