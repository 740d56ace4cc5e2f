package rawaddr_test

import (
	"testing"

	"golang.org/x/tools/go/analysis"

	"bulkpreload/internal/check/analysistest"
	"bulkpreload/internal/check/load"
	"bulkpreload/internal/check/rawaddr"
)

// TestRawAddr exercises the rule: shift/mask arithmetic on zaddr.Addr
// is flagged, except through the helpers or under an allow.
func TestRawAddr(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), rawaddr.Analyzer, "geometry")
}

// TestRealTreeRawAddr runs rawaddr alone over the real module the way
// zbpcheck does and demands zero diagnostics: raw shift/mask arithmetic
// on a zaddr.Addr outside the helpers, or a stale //zbp:allow rawaddr,
// fails this test without needing the full suite.
func TestRealTreeRawAddr(t *testing.T) {
	root, modPath, err := load.FindModule(".")
	if err != nil {
		t.Fatalf("FindModule: %v", err)
	}
	pkgs, err := load.New(root, modPath).ModulePackages()
	if err != nil {
		t.Fatalf("ModulePackages: %v", err)
	}
	for _, pkg := range pkgs {
		pass := &analysis.Pass{
			Analyzer:   rawaddr.Analyzer,
			Fset:       pkg.Fset,
			Files:      pkg.Syntax,
			Pkg:        pkg.Types,
			TypesInfo:  pkg.TypesInfo,
			TypesSizes: pkg.TypeSizes,
			Report: func(d analysis.Diagnostic) {
				t.Errorf("%s: %s", pkg.Fset.Position(d.Pos), d.Message)
			},
		}
		if _, err := rawaddr.Analyzer.Run(pass); err != nil {
			t.Fatalf("rawaddr on %s: %v", pkg.PkgPath, err)
		}
	}
}
