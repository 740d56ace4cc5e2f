// Package lockorder proves the service layer's locking discipline at
// build time, the properties the zsimd testbed can only sample:
//
//   - deadlock freedom by acquisition order: every "acquire B while
//     holding A" site contributes an A→B edge to a module-wide lock
//     graph, propagated across packages through analysis facts; a cycle
//     in that graph is a build error, as is re-acquiring a mutex the
//     function (or a //zbp:caller-holds contract) already holds;
//   - no blocking under a mutex: a channel send/receive, select without
//     a default, file Write/Sync/Close, filesystem call, sync.Wait, or
//     HTTP round-trip executed with any mutex held stalls every
//     contender behind one slow peer. Each such site is rejected unless
//     sanctioned by //zbp:locked <reason> — on the line for one
//     operation, in the function's doc comment for the deliberate
//     fsync-inside-the-critical-section durability idiom (which also
//     keeps the function's blocking summary out of its callers);
//   - declared data-race contracts: a struct field annotated
//     //zbp:guardedby mu may only be read or written while the named
//     sibling mutex is held — locked in the same function, or declared
//     held on entry by the function's //zbp:caller-holds mu. Exported
//     guarded fields export a fact, so other packages' accesses are
//     checked too. Every guardedby and caller-holds name must resolve
//     to a real sync mutex;
//   - unlock on every path: a mutex taken without defer must be
//     released on every return path (the manual early-unlock ladder in
//     jobq verifies cleanly).
//
// Per-function summaries (locks acquired, ways the body blocks) flow
// interprocedurally: same-package callees by fixpoint, cross-package
// callees through the gob facts store, so jobq.Queue.Enqueue calling an
// exported helper three packages away is checked against the same
// graph as a direct Lock call. Each function is walked twice: once for
// its summary, once to report against the held set.
package lockorder

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"golang.org/x/tools/go/analysis"

	"bulkpreload/internal/check/directive"
)

const name = "lockorder"

// lockFact is a function's interprocedural locking summary, exported
// through the facts store: the lock keys its call may acquire and the
// ways it may block. Blocks is empty for doc-level //zbp:locked
// functions — their blocking is sanctioned where it lives.
type lockFact struct {
	Acquires []string
	Blocks   []string
}

func (*lockFact) AFact() {}
func (f *lockFact) String() string {
	return "acquires=" + strings.Join(f.Acquires, ",") + " blocks=" + strings.Join(f.Blocks, ",")
}

// lockEdge is one observed acquisition ordering: To was acquired while
// From was held, at File:Line inside Fn.
type lockEdge struct {
	From, To string
	Fn       string
	File     string
	Line     int
}

// lockGraphFact is a package's transitively merged lock graph (its own
// edges plus every dependency's), exported as a package fact so each
// package only has to look one import hop deep.
type lockGraphFact struct {
	Edges []lockEdge
}

func (*lockGraphFact) AFact() {}
func (f *lockGraphFact) String() string {
	parts := make([]string, len(f.Edges))
	for i, e := range f.Edges {
		parts[i] = e.From + "->" + e.To
	}
	return strings.Join(parts, " ")
}

// Analyzer is the lockorder analyzer.
var Analyzer = &analysis.Analyzer{
	Name: name,
	Doc: "rejects cyclic lock-acquisition orders, blocking while holding a mutex " +
		"(sanctioned by //zbp:locked <reason>), //zbp:guardedby accesses without the " +
		"named mutex, and locks left held on a return path; interprocedural via facts",
	Run:       run,
	FactTypes: []analysis.Fact{(*lockFact)(nil), (*lockGraphFact)(nil), (*guardFact)(nil)},
}

// callee is one same-package call site recorded during the summary
// scan. exempt marks a line-level //zbp:locked on the call: the
// callee's blocking stays out of the caller's summary (its acquisitions
// still propagate — an annotation cannot un-take a lock).
type callee struct {
	obj    types.Object
	exempt bool
}

// summary is one function's locking behavior, before and after the
// same-package fixpoint.
type summary struct {
	fn       *ast.FuncDecl
	obj      types.Object
	acquires map[string]bool
	blocks   map[string]bool
	callees  []callee

	docLocked bool
	docReason string
	entry     []heldLock // synthetic locks from //zbp:caller-holds
}

type checker struct {
	pass      *analysis.Pass
	allows    *directive.AllowSet
	locked    *directive.LockedSet
	walker    *walker
	guards    map[types.Object]*guard // this package's //zbp:guardedby fields
	sums      map[types.Object]*summary
	order     []*summary
	edges     map[string]*siteEdge // own edges, keyed From+"\x00"+To
	edgeOrder []*siteEdge
}

// siteEdge is an own-package edge plus the node to report cycles at.
type siteEdge struct {
	e  lockEdge
	at ast.Node
}

func run(pass *analysis.Pass) (interface{}, error) {
	c := &checker{
		pass:   pass,
		allows: directive.CollectAllows(pass, name),
		locked: directive.CollectLocked(pass),
		walker: &walker{
			info:    pass.TypesInfo,
			fset:    pass.Fset,
			pkgName: directive.PkgLastElem(pass.Pkg.Path()),
		},
		guards: make(map[types.Object]*guard),
		sums:   make(map[types.Object]*summary),
		edges:  make(map[string]*siteEdge),
	}
	c.collectGuards()

	// Phase A: direct per-function summaries (declaration order), with
	// cross-package callee facts merged in as they are seen.
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, isFn := decl.(*ast.FuncDecl)
			if !isFn || fn.Body == nil {
				continue
			}
			obj := pass.TypesInfo.Defs[fn.Name]
			if obj == nil {
				continue
			}
			s := c.scanDirect(fn, obj)
			c.sums[obj] = s
			c.order = append(c.order, s)
		}
	}
	c.fixpoint()

	// Export each function's summary before reporting, so downstream
	// packages see facts even when this package has findings.
	for _, s := range c.order {
		fact := &lockFact{Acquires: sortedKeys(s.acquires)}
		if !s.docLocked {
			fact.Blocks = sortedKeys(s.blocks)
		}
		if len(fact.Acquires) > 0 || len(fact.Blocks) > 0 {
			if c.pass.ExportObjectFact != nil {
				c.pass.ExportObjectFact(s.obj, fact)
			}
		}
		if s.docLocked {
			switch {
			case s.docReason == "":
				c.allows.Report(c.pass, s.fn.Name, "malformed //zbp:locked on %s: a doc-comment form needs a reason naming why blocking inside the critical section is the design", s.fn.Name.Name)
			case len(s.blocks) == 0:
				c.allows.Report(c.pass, s.fn.Name, "unused //zbp:locked on %s: the body has no blocking operation; delete the stale annotation", s.fn.Name.Name)
			}
		}
	}

	// Phase B: walk each body with full summaries, reporting blocking
	// under held locks, unguarded accesses and locks held at exit, and
	// collecting acquisition-order edges.
	for _, s := range c.order {
		c.checkBody(s)
	}

	c.cycles()
	c.locked.ReportUnused(pass)
	c.allows.ReportUnused(pass)
	return nil, nil
}

// scanDirect computes one function's direct summary with a lit-skipping
// walk: acquisitions from the acquire hook, blocking operations and call
// sites from the node hook. It also resolves the function's
// //zbp:caller-holds names, reporting any that name no mutex.
func (c *checker) scanDirect(fn *ast.FuncDecl, obj types.Object) *summary {
	s := &summary{
		fn:       fn,
		obj:      obj,
		acquires: make(map[string]bool),
		blocks:   make(map[string]bool),
	}
	s.docReason, s.docLocked = directive.DocLocked(fn)
	for _, mu := range directive.CallerHolds(fn) {
		key, ok := resolveHold(c.pass.TypesInfo, c.pass.Pkg, fn, mu)
		switch {
		case mu == "":
			c.allows.Report(c.pass, fn.Name, "malformed //zbp:caller-holds on %s: want //zbp:caller-holds <mutex>", fn.Name.Name)
		case !ok:
			c.allows.Report(c.pass, fn.Name, "//zbp:caller-holds on %s names %q, which is neither a sync mutex field of the receiver nor a package-level sync var", fn.Name.Name, mu)
		default:
			s.entry = append(s.entry, heldLock{key: key, pos: fn.Name.Pos(), synthetic: true})
		}
	}
	c.walker.walk(fn, nil, hooks{
		skipLits: true,
		acquire: func(call *ast.CallExpr, l heldLock, held []heldLock) {
			s.acquires[l.key] = true
		},
		node: func(n ast.Node, held []heldLock) {
			if desc, ok := c.classify(n); ok {
				if !c.locked.Covers(n.Pos()) {
					s.blocks[desc] = true
				}
				// A classified call (f.Sync, os.Remove...) is stdlib;
				// no summary will exist for it, so fall through safely.
			}
			call, isCall := n.(*ast.CallExpr)
			if !isCall {
				return
			}
			fnObj := calleeOf(c.pass.TypesInfo, call)
			if fnObj == nil || fnObj.Pkg() == nil {
				return
			}
			exempt := c.locked.Covers(call.Pos())
			if fnObj.Pkg() == c.pass.Pkg {
				s.callees = append(s.callees, callee{obj: fnObj, exempt: exempt})
				return
			}
			var fact lockFact
			if c.pass.ImportObjectFact != nil && c.pass.ImportObjectFact(fnObj, &fact) {
				for _, a := range fact.Acquires {
					s.acquires[a] = true
				}
				if !exempt {
					for _, b := range fact.Blocks {
						s.blocks[b] = true
					}
				}
			}
		},
	})
	return s
}

// fixpoint folds same-package callee summaries into their callers until
// nothing changes (the call graph may be cyclic; the sets only grow, so
// this terminates).
func (c *checker) fixpoint() {
	for changed := true; changed; {
		changed = false
		for _, s := range c.order {
			for _, call := range s.callees {
				cs := c.sums[call.obj]
				if cs == nil {
					continue
				}
				for k := range cs.acquires {
					if !s.acquires[k] {
						s.acquires[k] = true
						changed = true
					}
				}
				if cs.docLocked || call.exempt {
					continue
				}
				for b := range cs.blocks {
					if !s.blocks[b] {
						s.blocks[b] = true
						changed = true
					}
				}
			}
		}
	}
}

// checkBody is the reporting walk: entry locks seeded from
// //zbp:caller-holds, blocking and guarded accesses checked against the
// live held set, locks still held checked at every exit, acquisition
// edges recorded for cycle detection.
func (c *checker) checkBody(s *summary) {
	fname := s.fn.Name.Name
	c.walker.walk(s.fn, s.entry, hooks{
		acquire: func(call *ast.CallExpr, l heldLock, held []heldLock) {
			for _, h := range held {
				if h.key != l.key {
					continue
				}
				if l.reader && h.reader {
					return // RLock under RLock is legal
				}
				c.allows.Report(c.pass, call, "%s acquires %s while already holding it%s; sync mutexes are not reentrant — this deadlocks", fname, l.key, heldVia(h))
				return
			}
			for _, h := range held {
				c.addEdge(h.key, l.key, fname, call)
			}
		},
		exit: func(pos token.Pos, held []heldLock) { c.checkExit(fname, pos, held) },
		node: func(n ast.Node, held []heldLock) {
			if sel, isSel := n.(*ast.SelectorExpr); isSel {
				c.checkGuarded(fname, sel, held)
				return
			}
			if desc, ok := c.classify(n); ok && len(held) > 0 {
				if !s.docLocked && !c.locked.Exempt(n.Pos()) {
					c.allows.Report(c.pass, n, "%s blocks (%s) while holding %s; one stalled peer stops every contender — move it outside the critical section or annotate //zbp:locked <reason>", fname, desc, keysOf(held))
				}
				return
			}
			call, isCall := n.(*ast.CallExpr)
			if !isCall {
				return
			}
			fnObj := calleeOf(c.pass.TypesInfo, call)
			if fnObj == nil {
				return
			}
			acquires, blocks := c.summaryFor(fnObj)
			for _, a := range acquires {
				if holds(held, a) {
					c.allows.Report(c.pass, call, "%s calls %s, which acquires %s — already held here; sync mutexes are not reentrant — this deadlocks", fname, fnObj.Name(), a)
					continue
				}
				for _, h := range held {
					c.addEdge(h.key, a, fname, call)
				}
			}
			if len(blocks) > 0 && len(held) > 0 && !s.docLocked && !c.locked.Exempt(call.Pos()) {
				c.allows.Report(c.pass, call, "%s calls %s, which blocks (%s), while holding %s; move the call outside the critical section or annotate //zbp:locked <reason>", fname, fnObj.Name(), blocks[0], keysOf(held))
			}
		},
	})
}

// summaryFor resolves a callee's final acquisition/blocking summary:
// same-package from the fixpointed map, cross-package from its fact.
func (c *checker) summaryFor(fnObj types.Object) (acquires, blocks []string) {
	if fnObj.Pkg() == c.pass.Pkg {
		s := c.sums[fnObj]
		if s == nil {
			return nil, nil
		}
		acquires = sortedKeys(s.acquires)
		if !s.docLocked {
			blocks = sortedKeys(s.blocks)
		}
		return acquires, blocks
	}
	var fact lockFact
	if c.pass.ImportObjectFact != nil && c.pass.ImportObjectFact(fnObj, &fact) {
		return fact.Acquires, fact.Blocks
	}
	return nil, nil
}

func (c *checker) addEdge(from, to, fname string, at ast.Node) {
	key := from + "\x00" + to
	if _, dup := c.edges[key]; dup {
		return
	}
	p := c.pass.Fset.Position(at.Pos())
	se := &siteEdge{
		e:  lockEdge{From: from, To: to, Fn: fname, File: p.Filename, Line: p.Line},
		at: at,
	}
	c.edges[key] = se
	c.edgeOrder = append(c.edgeOrder, se)
}

// cycles merges the dependency lock graphs with this package's edges,
// exports the union as this package's graph fact, and reports every
// acquisition-order cycle a local edge participates in — once per
// cycle, at the first local edge that closes it.
func (c *checker) cycles() {
	merged := make(map[string]lockEdge)
	var order []lockEdge
	add := func(e lockEdge) {
		key := e.From + "\x00" + e.To
		if _, dup := merged[key]; dup {
			return
		}
		merged[key] = e
		order = append(order, e)
	}
	for _, se := range c.edgeOrder {
		add(se.e)
	}
	imports := append([]*types.Package(nil), c.pass.Pkg.Imports()...)
	sort.Slice(imports, func(i, j int) bool { return imports[i].Path() < imports[j].Path() })
	for _, imp := range imports {
		var gf lockGraphFact
		if c.pass.ImportPackageFact != nil && c.pass.ImportPackageFact(imp, &gf) {
			for _, e := range gf.Edges {
				add(e)
			}
		}
	}
	if len(order) > 0 && c.pass.ExportPackageFact != nil {
		exp := append([]lockEdge(nil), order...)
		sort.Slice(exp, func(i, j int) bool {
			if exp[i].From != exp[j].From {
				return exp[i].From < exp[j].From
			}
			return exp[i].To < exp[j].To
		})
		c.pass.ExportPackageFact(&lockGraphFact{Edges: exp})
	}

	adj := make(map[string][]lockEdge)
	for _, e := range order {
		adj[e.From] = append(adj[e.From], e)
	}
	seen := make(map[string]bool)
	for _, se := range c.edgeOrder {
		path := findPath(adj, se.e.To, se.e.From)
		if path == nil {
			continue
		}
		cycle := append([]lockEdge{se.e}, path...)
		id := cycleID(cycle)
		if seen[id] {
			continue
		}
		seen[id] = true
		chain := se.e.From
		for _, e := range cycle {
			chain += " -> " + e.To
		}
		closing := cycle[len(cycle)-1]
		c.allows.Report(c.pass, se.at,
			"lock acquisition order cycle: %s; this ordering conflicts with %s (%s:%d) — pick one global order",
			chain, closing.Fn, base(closing.File), closing.Line)
	}
}

// findPath BFS-searches the merged graph for a path from -> to,
// returning its edges (deterministic: adjacency lists are in insertion
// order, which is walk order plus sorted import order).
func findPath(adj map[string][]lockEdge, from, to string) []lockEdge {
	type node struct {
		key  string
		path []lockEdge
	}
	visited := map[string]bool{from: true}
	queue := []node{{key: from}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, e := range adj[cur.key] {
			if visited[e.To] {
				continue
			}
			next := append(append([]lockEdge(nil), cur.path...), e)
			if e.To == to {
				return next
			}
			visited[e.To] = true
			queue = append(queue, node{key: e.To, path: next})
		}
	}
	return nil
}

// cycleID canonicalizes a cycle (rotation-invariant) so the same cycle
// reached from different local edges reports once.
func cycleID(cycle []lockEdge) string {
	keys := make([]string, len(cycle))
	for i, e := range cycle {
		keys[i] = e.From
	}
	best := 0
	for i := range keys {
		if keys[i] < keys[best] {
			best = i
		}
	}
	rotated := append(append([]string(nil), keys[best:]...), keys[:best]...)
	return strings.Join(rotated, "->")
}

// classify recognizes the blocking operations the analyzer rejects
// under a held mutex. Select statements with a default clause and
// ranges over non-channels are not blocking.
func (c *checker) classify(n ast.Node) (string, bool) {
	switch n := n.(type) {
	case *ast.SendStmt:
		return "channel send", true
	case *ast.UnaryExpr:
		if n.Op == token.ARROW {
			return "channel receive", true
		}
	case *ast.SelectStmt:
		for _, cl := range n.Body.List {
			if comm, isComm := cl.(*ast.CommClause); isComm && comm.Comm == nil {
				return "", false
			}
		}
		return "select with no default", true
	case *ast.RangeStmt:
		if t := c.pass.TypesInfo.TypeOf(n.X); t != nil {
			if _, isChan := t.Underlying().(*types.Chan); isChan {
				return "range over a channel", true
			}
		}
	case *ast.CallExpr:
		return c.classifyCall(n)
	}
	return "", false
}

// classifyCall recognizes blocking callees by identity: sync waits,
// file and stream writes, filesystem calls, HTTP round-trips, sleeps.
func (c *checker) classifyCall(call *ast.CallExpr) (string, bool) {
	fn := calleeOf(c.pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return "", false
	}
	sig, _ := fn.Type().(*types.Signature)
	recv := sig != nil && sig.Recv() != nil
	switch fn.Pkg().Path() {
	case "sync":
		if fn.Name() == "Wait" {
			return "sync Wait", true
		}
	case "time":
		if fn.Name() == "Sleep" {
			return "time.Sleep", true
		}
	case "os":
		if recv {
			switch fn.Name() {
			case "Sync":
				return "file Sync", true
			case "Write", "WriteString", "WriteAt", "ReadFrom":
				return "file write", true
			case "Close":
				return "file Close", true
			}
			return "", false
		}
		switch fn.Name() {
		case "Remove", "RemoveAll", "Rename", "Create", "CreateTemp",
			"Open", "OpenFile", "Mkdir", "MkdirAll", "ReadFile", "WriteFile":
			return "filesystem " + fn.Name(), true
		}
	case "net/http":
		switch fn.Name() {
		case "Do", "Get", "Post", "PostForm", "Head", "RoundTrip":
			return "HTTP round-trip", true
		}
	}
	// Interface writes reach files through io.Writer and friends: a
	// journal append helper taking io.Writer blocks exactly like the
	// *os.File it is handed.
	if recv {
		if _, isIface := sig.Recv().Type().Underlying().(*types.Interface); isIface {
			switch fn.Name() {
			case "Write", "WriteString", "ReadFrom", "Flush", "Sync":
				return "stream write", true
			}
		}
	}
	return "", false
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

func keysOf(held []heldLock) string {
	keys := make([]string, len(held))
	for i, l := range held {
		keys[i] = l.key
	}
	return strings.Join(keys, ", ")
}

func heldVia(h heldLock) string {
	if h.synthetic {
		return " (held per //zbp:caller-holds)"
	}
	return ""
}

func sortedKeys(m map[string]bool) []string {
	if len(m) == 0 {
		return nil
	}
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func base(file string) string {
	if i := strings.LastIndexByte(file, '/'); i >= 0 {
		return file[i+1:]
	}
	return file
}
