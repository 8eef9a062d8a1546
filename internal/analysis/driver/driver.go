// Package driver is a self-contained static-analysis harness in the
// spirit of golang.org/x/tools/go/analysis, built entirely on the
// standard library so the repository carries no external tool
// dependencies. It loads packages through `go list -export` (parsing
// source with go/parser and type-checking against the gc export data
// the go command already produces), hands each package to a set of
// Analyzers, and collects position-tagged diagnostics.
//
// The one domain analyzer, internal/analysis/determinism, enforces the
// invariant the simulator's correctness claims rest on: reproducible
// closed-loop trajectories. cmd/mtlint wires it into a CLI gate.
package driver

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
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
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, []error) {
	var (
		diags []Diagnostic
		errs  []error
	)
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Pkg:      pkg,
				report:   func(d Diagnostic) { diags = append(diags, d) },
			}
			if err := a.Run(pass); err != nil {
				errs = append(errs, fmt.Errorf("%s: %s: %w", a.Name, pkg.ImportPath, err))
			}
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
