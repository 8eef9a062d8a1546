package driver

import (
	"go/ast"
	"go/token"
	"strings"
)

// mtlint annotation grammar. Annotations are directive-style comments
// (no space after the slashes), so gofmt leaves them alone:
//
//	//mtlint:deterministic
//	    Package marker, placed with the package clause (any file).
//	    Opts the package into the determinism analyzer.
//
//	//mtlint:zeroalloc
//	    Function marker, placed in a function's doc comment. The
//	    zeroalloc analyzer fails the build if escape analysis reports
//	    any heap allocation inside the function body.
//
//	//mtlint:allow <check> [reason]
//	    Line-level suppression, on the flagged line or the line
//	    directly above it. Checks: maprange, time, rand, goappend.
const directivePrefix = "//mtlint:"

// directive splits an "//mtlint:name args..." comment into its name
// and argument string; ok is false for other comments.
func directive(c *ast.Comment) (name, args string, ok bool) {
	if !strings.HasPrefix(c.Text, directivePrefix) {
		return "", "", false
	}
	rest := strings.TrimPrefix(c.Text, directivePrefix)
	name, args, _ = strings.Cut(rest, " ")
	return name, strings.TrimSpace(args), true
}

// PackageMarked reports whether any file of the package carries the
// given //mtlint:<name> directive at package level (in or above the
// package clause's comments, before the first declaration).
func PackageMarked(pkg *Package, name string) bool {
	for _, f := range pkg.Files {
		limit := f.End()
		if len(f.Decls) > 0 {
			limit = f.Decls[0].Pos()
		}
		for _, cg := range f.Comments {
			if cg.Pos() >= limit {
				break
			}
			for _, c := range cg.List {
				if n, _, ok := directive(c); ok && n == name {
					return true
				}
			}
		}
		if f.Doc != nil {
			for _, c := range f.Doc.List {
				if n, _, ok := directive(c); ok && n == name {
					return true
				}
			}
		}
	}
	return false
}

// FuncMarked reports whether fn's doc comment carries //mtlint:<name>.
func FuncMarked(fn *ast.FuncDecl, name string) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if n, _, ok := directive(c); ok && n == name {
			return true
		}
	}
	return false
}

// Allowed reports whether a "//mtlint:allow <check>" suppression
// covers pos: the directive may sit on the same line (trailing
// comment) or on the line immediately above.
func Allowed(pkg *Package, pos token.Pos, check string) bool {
	position := pkg.Fset.Position(pos)
	file := fileFor(pkg, pos)
	if file == nil {
		return false
	}
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			n, args, ok := directive(c)
			if !ok || n != "allow" {
				continue
			}
			fields := strings.Fields(args)
			if len(fields) == 0 || fields[0] != check {
				continue
			}
			cl := pkg.Fset.Position(c.Pos()).Line
			if cl == position.Line || cl == position.Line-1 {
				return true
			}
		}
	}
	return false
}

// fileFor returns the parsed file containing pos (test files included,
// so suppressions work uniformly).
func fileFor(pkg *Package, pos token.Pos) *ast.File {
	for _, f := range pkg.Files {
		if f.FileStart <= pos && pos < f.FileEnd {
			return f
		}
	}
	for _, f := range pkg.TestFiles {
		if f.FileStart <= pos && pos < f.FileEnd {
			return f
		}
	}
	return nil
}
