package driver_test

import (
	"errors"
	"go/ast"
	"reflect"
	"testing"

	"multitherm/internal/analysis/driver"
)

// loadFixture loads the small multi-package module under testdata; it
// gives Run several packages whose findings must interleave by position,
// without depending on the repository's own package graph.
func loadFixture(t *testing.T) []*driver.Package {
	t.Helper()
	pkgs, err := driver.Load("testdata/src", "./...")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) < 3 {
		t.Fatalf("fixture module loaded %d packages, want >= 3", len(pkgs))
	}
	return pkgs
}

// identReporter flags every exported top-level declaration name; it is
// cheap, touches every package, and yields multiple diagnostics per
// pass, which the final sort must merge with fileReporter's by
// position.
var identReporter = &driver.Analyzer{
	Name: "identreporter",
	Doc:  "test analyzer: reports every exported top-level name",
	Run: func(pass *driver.Pass) error {
		for _, f := range pass.Files() {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Name.IsExported() {
						pass.Reportf(d.Name.Pos(), "exported func %s", d.Name.Name)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						if ts, ok := spec.(*ast.TypeSpec); ok && ts.Name.IsExported() {
							pass.Reportf(ts.Name.Pos(), "exported type %s", ts.Name.Name)
						}
					}
				}
			}
		}
		return nil
	},
}

var fileReporter = &driver.Analyzer{
	Name: "filereporter",
	Doc:  "test analyzer: reports each file's package clause",
	Run: func(pass *driver.Pass) error {
		for _, f := range pass.Files() {
			pass.Reportf(f.Name.Pos(), "package clause %s", f.Name.Name)
		}
		return nil
	},
}

// TestRunDeterministicOrder runs two analyzers over the fixture
// packages and demands diagnostics in position order, identical on
// every repeat: Run's final sort, not the order in which passes report,
// fixes the output.
func TestRunDeterministicOrder(t *testing.T) {
	pkgs := loadFixture(t)
	analyzers := []*driver.Analyzer{identReporter, fileReporter}

	first, errs := driver.Run(pkgs, analyzers)
	if len(errs) != 0 {
		t.Fatalf("unexpected infrastructure errors: %v", errs)
	}
	if len(first) == 0 {
		t.Fatal("test analyzers reported nothing; fixture or analyzers broken")
	}
	for i := 1; i < len(first); i++ {
		a, b := first[i-1], first[i]
		if a.Pos.Filename > b.Pos.Filename ||
			(a.Pos.Filename == b.Pos.Filename && a.Pos.Line > b.Pos.Line) {
			t.Fatalf("diagnostics out of position order: %s then %s", a, b)
		}
	}
	for run := 0; run < 5; run++ {
		got, errs := driver.Run(pkgs, analyzers)
		if len(errs) != 0 {
			t.Fatalf("run %d: unexpected errors: %v", run, errs)
		}
		if !reflect.DeepEqual(got, first) {
			t.Fatalf("run %d: diagnostics differ from first run:\nfirst: %v\ngot:   %v", run, first, got)
		}
	}
}

// TestRunContinuesPastErrors checks that one failing analyzer neither
// stops the passes after it nor suppresses their findings, and that
// every failing pass surfaces its own error.
func TestRunContinuesPastErrors(t *testing.T) {
	pkgs := loadFixture(t)
	failing := &driver.Analyzer{
		Name: "alwaysfails",
		Doc:  "test analyzer: fails on every package",
		Run:  func(*driver.Pass) error { return errors.New("synthetic failure") },
	}

	diags, errs := driver.Run(pkgs, []*driver.Analyzer{failing, identReporter})
	if len(errs) != len(pkgs) {
		t.Fatalf("got %d errors, want one per package (%d): %v", len(errs), len(pkgs), errs)
	}
	if len(diags) == 0 {
		t.Fatal("healthy analyzer's findings were lost alongside the failing one")
	}
	for _, d := range diags {
		if d.Analyzer != identReporter.Name {
			t.Fatalf("unexpected diagnostic from %s: %s", d.Analyzer, d)
		}
	}
}
