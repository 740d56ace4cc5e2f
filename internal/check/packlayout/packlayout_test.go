package packlayout_test

import (
	"testing"

	"golang.org/x/tools/go/analysis"

	"bulkpreload/internal/check/analysistest"
	"bulkpreload/internal/check/facts"
	"bulkpreload/internal/check/load"
	"bulkpreload/internal/check/packlayout"
)

func TestPackLayout(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), packlayout.Analyzer, "packfmt")
}

// TestPackLayoutCrossPackage proves the fact path: client restates
// wire's frame layout and binds codec roles to it; the layout is known
// only through the exported package fact.
func TestPackLayoutCrossPackage(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), packlayout.Analyzer, "layoutdeps/wire", "layoutdeps/client")
}

// TestPackLayoutGeometry exercises the raw-address rule: shift/mask
// arithmetic on zaddr.Addr is flagged, except through the helpers, an
// allow, or inside a body bound to a //zbp:layout.
func TestPackLayoutGeometry(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), packlayout.Analyzer, "geometry")
}

// TestRealTreeLayouts is the fixture-drift smoke: it runs packlayout
// alone over the real module exactly the way zbpcheck does and demands
// zero diagnostics. A //zbp:layout directive referencing a constant
// that no longer exists, a codec that drifted from its declared
// geometry, or raw shift/mask arithmetic on a zaddr.Addr outside the
// helpers fails this test without needing the full suite.
func TestRealTreeLayouts(t *testing.T) {
	root, modPath, err := load.FindModule(".")
	if err != nil {
		t.Fatalf("FindModule: %v", err)
	}
	l := load.New(root, modPath)
	pkgs, err := l.ModulePackages()
	if err != nil {
		t.Fatalf("ModulePackages: %v", err)
	}
	store := facts.NewStore()
	for _, pkg := range load.DependencyOrder(pkgs) {
		pass := &analysis.Pass{
			Analyzer:   packlayout.Analyzer,
			Fset:       pkg.Fset,
			Files:      pkg.Syntax,
			Pkg:        pkg.Types,
			TypesInfo:  pkg.TypesInfo,
			TypesSizes: pkg.TypeSizes,
			Report: func(d analysis.Diagnostic) {
				t.Errorf("%s: %s", pkg.Fset.Position(d.Pos), d.Message)
			},
		}
		facts.Bind(pass, store)
		if _, err := packlayout.Analyzer.Run(pass); err != nil {
			t.Fatalf("packlayout on %s: %v", pkg.PkgPath, err)
		}
	}
}
