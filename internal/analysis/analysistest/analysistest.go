// Package analysistest runs a driver.Analyzer over fixture packages
// and checks its diagnostics against inline "// want" expectations,
// mirroring golang.org/x/tools/go/analysis/analysistest on top of the
// repository's stdlib-only driver.
//
// Fixtures live in a testdata directory that is its own Go module (a
// nested go.mod keeps fixture packages out of the repository build),
// with one package per scenario. Expected diagnostics are annotated on
// the offending line:
//
//	x := rand.Float64() // want `math/rand`
//
// The argument is a regular expression in double or back quotes that
// must match the diagnostic message. Every diagnostic must match a
// want on its line and every want must be matched exactly once.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"multitherm/internal/analysis/driver"
)

// expectation is one "// want" annotation.
type expectation struct {
	file string // base name
	line int
	rx   *regexp.Regexp
	hits int
}

// Run loads the fixture module rooted at dir (patterns default to
// ./...), applies the analyzer, and reports any mismatch between its
// diagnostics and the fixtures' want annotations as test failures.
func Run(t *testing.T, dir string, a *driver.Analyzer, patterns ...string) {
	t.Helper()
	pkgs, err := driver.Load(dir, patterns...)
	if err != nil {
		t.Fatalf("loading fixtures from %s: %v", dir, err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("no fixture packages under %s", dir)
	}
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			t.Errorf("fixture %s: type error: %v", pkg.ImportPath, terr)
		}
	}

	var wants []*expectation
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			ws, err := collectWants(pkg.Fset, f)
			if err != nil {
				t.Fatal(err)
			}
			wants = append(wants, ws...)
		}
	}

	diags, errs := driver.Run(pkgs, []*driver.Analyzer{a})
	for _, err := range errs {
		t.Errorf("analyzer error: %v", err)
	}

diag:
	for _, d := range diags {
		base := d.Pos.Filename[strings.LastIndexByte(d.Pos.Filename, '/')+1:]
		for _, w := range wants {
			if w.file == base && w.line == d.Pos.Line && w.rx.MatchString(d.Message) {
				w.hits++
				continue diag
			}
		}
		t.Errorf("unexpected diagnostic: %s", d)
	}
	for _, w := range wants {
		if w.hits == 0 {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.rx)
		} else if w.hits > 1 {
			t.Errorf("%s:%d: want %q matched %d diagnostics, expected exactly one", w.file, w.line, w.rx, w.hits)
		}
	}
}

// wantRE matches the annotation payloads: one or more quoted or
// back-quoted regular expressions after "want".
var wantRE = regexp.MustCompile("// want ((?:[`\"][^`\"]*[`\"] ?)+)")

func collectWants(fset *token.FileSet, f *ast.File) ([]*expectation, error) {
	var out []*expectation
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			m := wantRE.FindStringSubmatch(c.Text)
			if m == nil {
				continue
			}
			pos := fset.Position(c.Pos())
			base := pos.Filename[strings.LastIndexByte(pos.Filename, '/')+1:]
			for _, q := range splitQuoted(m[1]) {
				rx, err := regexp.Compile(q)
				if err != nil {
					return nil, fmt.Errorf("%s:%d: bad want regexp %q: %v", base, pos.Line, q, err)
				}
				out = append(out, &expectation{file: base, line: pos.Line, rx: rx})
			}
		}
	}
	return out, nil
}

// splitQuoted extracts the bodies of consecutive quoted or back-quoted
// strings.
func splitQuoted(s string) []string {
	var out []string
	s = strings.TrimSpace(s)
	for s != "" {
		switch s[0] {
		case '`':
			end := strings.IndexByte(s[1:], '`')
			if end < 0 {
				return out
			}
			out = append(out, s[1:1+end])
			s = strings.TrimSpace(s[end+2:])
		case '"':
			// Re-quote through strconv to honor escapes.
			end := strings.IndexByte(s[1:], '"')
			if end < 0 {
				return out
			}
			if uq, err := strconv.Unquote(s[:end+2]); err == nil {
				out = append(out, uq)
			}
			s = strings.TrimSpace(s[end+2:])
		default:
			return out
		}
	}
	return out
}
