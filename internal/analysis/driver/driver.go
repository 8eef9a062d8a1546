// Package driver is a self-contained static-analysis harness in the
// spirit of golang.org/x/tools/go/analysis, built entirely on the
// standard library so the repository carries no external tool
// dependencies. It loads packages through `go list -export` (parsing
// source with go/parser and type-checking against the gc export data
// the go command already produces), hands each package to a set of
// Analyzers, and collects position-tagged diagnostics.
//
// The domain analyzers under internal/analysis/... enforce the
// invariants the simulator's correctness claims rest on — reproducible
// closed-loop trajectories, float-comparison hygiene, zero-allocation
// hot ticks, and asm/generic kernel parity — and cmd/mtlint wires them
// into one CLI gate.
package driver

import (
	"context"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"multitherm/internal/parallel"
)

// Analyzer is one static check. Run inspects a fully loaded package
// through the Pass and reports findings; it returns an error only for
// infrastructure failures (a finding is a diagnostic, not an error).
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Pass carries one package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	report   func(Diagnostic)
}

// Fset returns the file set all package positions resolve through.
func (p *Pass) Fset() *token.FileSet { return p.Pkg.Fset }

// Files returns the parsed non-test Go files of the package.
func (p *Pass) Files() []*ast.File { return p.Pkg.Files }

// TypesInfo returns the type information recorded while checking the
// package.
func (p *Pass) TypesInfo() *types.Info { return p.Pkg.TypesInfo }

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Pkg.Fset.Position(pos),
		Package:  p.Pkg.ImportPath,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding, resolved to a concrete file position.
type Diagnostic struct {
	Pos      token.Position
	Package  string
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Pos, d.Message, d.Analyzer)
}

// Run applies every analyzer to every package and returns the combined
// diagnostics sorted by file, line, and column. Infrastructure errors
// (not findings) are returned separately; analysis continues past them
// so one broken analyzer does not mask another's findings.
//
// Passes are independent — an analyzer sees one package at a time and
// only reads shared structures (the FileSet, gc export data) — so Run
// fans them out across internal/parallel workers. That matters chiefly
// for zeroalloc, whose per-package `go build -gcflags=-m` subprocess
// dominates the gate's wall clock. Determinism is preserved the same
// way the sweep engine preserves it: each pass writes into its own
// index-addressed slot, the slots are flattened in index order, and the
// final position sort makes the output independent of scheduling.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, []error) {
	if len(pkgs) == 0 || len(analyzers) == 0 {
		return nil, nil
	}
	type slot struct {
		diags []Diagnostic
		err   error
	}
	slots := make([]slot, len(pkgs)*len(analyzers))
	// fn never returns an error: infrastructure failures are recorded in
	// the pass's slot so every pass still runs (ForEach would cancel the
	// remaining work on the first error).
	_ = parallel.ForEach(context.Background(), 0, len(slots), func(_ context.Context, i int) error {
		pkg, a := pkgs[i/len(analyzers)], analyzers[i%len(analyzers)]
		s := &slots[i]
		pass := &Pass{
			Analyzer: a,
			Pkg:      pkg,
			report:   func(d Diagnostic) { s.diags = append(s.diags, d) },
		}
		if err := a.Run(pass); err != nil {
			s.err = fmt.Errorf("%s: %s: %w", a.Name, pkg.ImportPath, err)
		}
		return nil
	})
	var (
		diags []Diagnostic
		errs  []error
	)
	for i := range slots {
		diags = append(diags, slots[i].diags...)
		if slots[i].err != nil {
			errs = append(errs, slots[i].err)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		if diags[i].Analyzer != diags[j].Analyzer {
			return diags[i].Analyzer < diags[j].Analyzer
		}
		return diags[i].Message < diags[j].Message
	})
	return diags, errs
}
