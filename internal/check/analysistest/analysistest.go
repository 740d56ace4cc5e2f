// Package analysistest runs an analyzer over GOPATH-style fixture
// packages and checks its diagnostics against // want comments, the
// same contract as golang.org/x/tools/go/analysis/analysistest (which
// this offline harness stands in for; it additionally reuses the
// suite's own loader, so fixtures type-check against real stdlib
// source with no network or build cache).
//
// Fixtures live under <testdata>/src/<pkg>/*.go. A line expecting
// diagnostics carries one want comment per diagnostic:
//
//	x := rand.Intn(4) // want `global math/rand`
//	y := f()          // want "first" "second"
//
// Each string is a regular expression that must match a diagnostic
// reported on that line; unmatched diagnostics and unmatched
// expectations both fail the test.
package analysistest

import (
	"go/token"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"testing"

	"golang.org/x/tools/go/analysis"

	"bulkpreload/internal/check/facts"
	"bulkpreload/internal/check/load"
)

// TestData returns the shared fixture root internal/check/testdata,
// resolved relative to this source file so tests can run from any
// package directory.
func TestData() string {
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		panic("analysistest: cannot locate caller")
	}
	// .../internal/check/analysistest/analysistest.go -> .../internal/check/testdata
	return filepath.Join(filepath.Dir(filepath.Dir(file)), "testdata")
}

// Run applies the analyzer to each fixture package (a directory name
// under testdata/src) and reports mismatches against the // want
// expectations through t.
//
// All fixture packages in one call share a loader and a fact store and
// are analyzed in argument order, so a fact-exporting analyzer
// (lockorder, durable) sees facts from earlier fixtures in later ones — list
// dependencies before their importers, exactly as the zbpcheck driver
// schedules real packages.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, fixturePkgs ...string) {
	t.Helper()
	root, modPath, err := load.FindModule(testdata)
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}
	l := load.New(root, modPath)
	l.ExtraSrcRoots = []string{filepath.Join(testdata, "src")}
	store := facts.NewStore()
	for _, pkgPath := range fixturePkgs {
		dir := filepath.Join(testdata, "src", filepath.FromSlash(pkgPath))
		pkg, err := l.LoadTarget(dir, pkgPath)
		if err != nil {
			t.Fatalf("loading fixture %s: %v", pkgPath, err)
		}
		var got []analysis.Diagnostic
		pass := &analysis.Pass{
			Analyzer:   a,
			Fset:       pkg.Fset,
			Files:      pkg.Syntax,
			Pkg:        pkg.Types,
			TypesInfo:  pkg.TypesInfo,
			TypesSizes: pkg.TypeSizes,
			Report:     func(d analysis.Diagnostic) { got = append(got, d) },
		}
		facts.Bind(pass, store)
		if _, err := a.Run(pass); err != nil {
			t.Fatalf("%s on %s: %v", a.Name, pkgPath, err)
		}
		t.Run(pkgPath, func(t *testing.T) {
			checkWants(t, pkg.Fset, dir, pkg, got)
		})
	}
}

// wantRe is one expectation parsed from a // want comment.
type wantRe struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

var wantComment = regexp.MustCompile(`//\s*want\s+(.*)$`)

// parseWants extracts the expectations from every fixture file.
func parseWants(t *testing.T, fset *token.FileSet, pkg *load.Package) []*wantRe {
	t.Helper()
	var wants []*wantRe
	for _, f := range pkg.Syntax {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantComment.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, raw := range splitPatterns(m[1]) {
					re, err := regexp.Compile(raw)
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, raw, err)
					}
					wants = append(wants, &wantRe{file: pos.Filename, line: pos.Line, re: re, raw: raw})
				}
			}
		}
	}
	return wants
}

// splitPatterns tokenizes the payload of a want comment: a sequence of
// double-quoted or backquoted regular expressions.
func splitPatterns(s string) []string {
	var out []string
	s = strings.TrimSpace(s)
	for s != "" {
		switch s[0] {
		case '"':
			end := 1
			for end < len(s) && (s[end] != '"' || s[end-1] == '\\') {
				end++
			}
			if end >= len(s) {
				return append(out, s[1:]) // unterminated: take the rest
			}
			out = append(out, strings.ReplaceAll(s[1:end], `\"`, `"`))
			s = strings.TrimSpace(s[end+1:])
		case '`':
			end := strings.IndexByte(s[1:], '`')
			if end < 0 {
				return append(out, s[1:])
			}
			out = append(out, s[1:1+end])
			s = strings.TrimSpace(s[2+end:])
		default:
			// Not a recognized pattern start; stop (trailing prose).
			return out
		}
	}
	return out
}

func checkWants(t *testing.T, fset *token.FileSet, dir string, pkg *load.Package, got []analysis.Diagnostic) {
	t.Helper()
	wants := parseWants(t, fset, pkg)
	sort.Slice(got, func(i, j int) bool { return got[i].Pos < got[j].Pos })
	for _, d := range got {
		pos := fset.Position(d.Pos)
		if !matchWant(wants, pos, d.Message) {
			t.Errorf("%s:%d: unexpected diagnostic: %s", rel(dir, pos.Filename), pos.Line, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", rel(dir, w.file), w.line, w.raw)
		}
	}
}

// matchWant consumes the first unmatched expectation on the
// diagnostic's line whose regexp matches.
func matchWant(wants []*wantRe, pos token.Position, msg string) bool {
	for _, w := range wants {
		if w.matched || w.file != pos.Filename || w.line != pos.Line {
			continue
		}
		if w.re.MatchString(msg) {
			w.matched = true
			return true
		}
	}
	return false
}

func rel(dir, file string) string {
	if r, err := filepath.Rel(dir, file); err == nil {
		return r
	}
	return file
}
