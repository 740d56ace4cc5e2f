// Package staledirective defines the analyzer that keeps the //zbp:
// annotation language honest. Every other analyzer already reports its
// own unused suppressions, but only inside the packages it scans — a
// directive can still rot three ways that nothing else catches:
//
//   - a misspelled or unknown kind (//zbp:hotpth, //zbp:pure) that no
//     analyzer will ever parse, or a retired one (//zbp:hotpath,
//     //zbp:inert) whose analyzer a runtime test replaced — carried over
//     from an old branch, it fails with the name of that test;
//   - an //zbp:allow naming an unknown analyzer, or naming a real one
//     in a package that analyzer never checks (an allow for
//     determinism in a non-critical package, an allow for erring
//     outside cmd/ and sim) — the suppression is dead on arrival and
//     silently stops meaning anything;
//   - a placement no consumer reads: //zbp:durable or
//     //zbp:caller-holds anywhere but a function's doc comment,
//     //zbp:guardedby anywhere but a struct field's comment,
//     //zbp:wallclock outside the determinism-critical packages,
//     //zbp:bounded in a package ctxflow does not scan.
//
// In-scope usedness stays with the owning analyzer (unused allows with
// determinism &c., unused bounded with ctxflow); this analyzer owns the
// "no analyzer would even look" class, so the two never double-report.
package staledirective

import (
	"go/ast"
	"sort"
	"strings"

	"golang.org/x/tools/go/analysis"

	"bulkpreload/internal/check/ctxflow"
	"bulkpreload/internal/check/determinism"
	"bulkpreload/internal/check/directive"
	"bulkpreload/internal/check/erring"
	"bulkpreload/internal/check/rawaddr"
)

const name = "staledirective"

// Analyzer is the staledirective analyzer.
var Analyzer = &analysis.Analyzer{
	Name: name,
	Doc:  "reject //zbp: directives that no analyzer in the suite would consume",
	Run:  run,
}

func everywhere(string) bool { return true }

// scopes maps each analyzer in the suite to the packages it checks, so
// an allow can be validated against the consumer it names. The entries
// delegate to the analyzers' own exported scope predicates where the
// scope is nontrivial; drift is impossible there by construction.
var scopes = map[string]func(pkgPath string) bool{
	"determinism": determinism.InScope,
	"erring":      erring.InScope,
	"ctxflow":     ctxflow.InScope,
	"lockorder":   everywhere,
	"durable":     everywhere,
	"rawaddr":     rawaddr.InScope,
	name:          everywhere,
}

func knownAnalyzers() string {
	names := make([]string, 0, len(scopes))
	for n := range scopes {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

func run(pass *analysis.Pass) (interface{}, error) {
	allows := directive.CollectAllows(pass, name)
	for _, f := range pass.Files {
		docs := funcDocRanges(f)
		fields := fieldDocRanges(f)
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				checkComment(pass, allows, c, docs, fields)
			}
		}
	}
	allows.ReportUnused(pass)
	return nil, nil
}

// docRange is the extent of one function declaration's doc comment.
type docRange struct{ pos, end int }

// funcDocRanges returns the line extents of every doc comment attached
// to a function that has a body (the only placement durable and
// caller-holds are read from).
func funcDocRanges(f *ast.File) []docRange {
	var out []docRange
	for _, decl := range f.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Doc == nil || fn.Body == nil {
			continue
		}
		out = append(out, docRange{int(fn.Doc.Pos()), int(fn.Doc.End())})
	}
	return out
}

// fieldDocRanges returns the extents of every struct field's doc and
// trailing comments — the only placement //zbp:guardedby is read from.
func fieldDocRanges(f *ast.File) []docRange {
	var out []docRange
	ast.Inspect(f, func(n ast.Node) bool {
		st, ok := n.(*ast.StructType)
		if !ok {
			return true
		}
		for _, fld := range st.Fields.List {
			for _, cg := range []*ast.CommentGroup{fld.Doc, fld.Comment} {
				if cg != nil {
					out = append(out, docRange{int(cg.Pos()), int(cg.End())})
				}
			}
		}
		return true
	})
	return out
}

func inFuncDoc(c *ast.Comment, docs []docRange) bool {
	for _, d := range docs {
		if int(c.Pos()) >= d.pos && int(c.End()) <= d.end {
			return true
		}
	}
	return false
}

func checkComment(pass *analysis.Pass, allows *directive.AllowSet, c *ast.Comment, docs, fields []docRange) {
	kind, rest, ok := directive.Split(c)
	if !ok {
		return
	}
	pkg := pass.Pkg.Path()
	switch kind {
	case "hotpath", "inert":
		allows.Report(pass, c, "retired //zbp:%s: %s; delete the directive", kind, retired[kind])
	case "allow":
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			return // malformed; every analyzer's CollectAllows already reports it
		}
		target := fields[0]
		scope, known := scopes[target]
		if !known {
			allows.Report(pass, c,
				"//zbp:allow names unknown analyzer %q (known: %s); the suppression is dead", target, knownAnalyzers())
			return
		}
		if !scope(pkg) {
			allows.Report(pass, c,
				"//zbp:allow %s in package %s, which the %s analyzer never checks; delete the dead suppression", target, pass.Pkg.Name(), target)
		}
	case "wallclock":
		if !determinism.InScope(pkg) {
			allows.Report(pass, c,
				"//zbp:wallclock in package %s, which the determinism analyzer never checks; delete the dead annotation", pass.Pkg.Name())
		}
	case "bounded":
		if !ctxflow.InScope(pkg) {
			allows.Report(pass, c,
				"//zbp:bounded in package %s, which the ctxflow analyzer never checks; delete the dead annotation", pass.Pkg.Name())
		}
	case "locked":
		// Consumed on (or above) a blocking line and in function doc
		// comments alike; lockorder itself reports the stale ones.
	case "durable", "caller-holds":
		if !inFuncDoc(c, docs) {
			allows.Report(pass, c,
				"stray //zbp:%s: only a function declaration's doc comment is read (by %s); this placement is consumed by no analyzer", kind, consumerOf(kind))
		}
	case "guardedby":
		if !inFuncDoc(c, fields) {
			allows.Report(pass, c,
				"stray //zbp:guardedby: only a struct field's comment is read (by lockorder); this placement is consumed by no analyzer")
		}
	default:
		allows.Report(pass, c,
			"unknown //zbp: directive %q; the suite consumes allow, wallclock, bounded, locked, guardedby, caller-holds, and durable", kind)
	}
}

// retired names, for each directive kind whose analyzer is gone, the
// runtime test that now holds its contract.
var retired = map[string]string{
	"hotpath": "the hotalloc analyzer is gone; allocation-free paths are pinned by testing.AllocsPerRun tests (engine.TestRunAllocsFlatInRecords end to end)",
	"inert":   "the inertpath analyzer is gone; engine.TestBulkWindowMatchesPredicate pins bulkWindow's inertness",
}

func consumerOf(kind string) string {
	if kind == "durable" {
		return "durable"
	}
	return "lockorder"
}
