package driver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// Package is one loaded, type-checked package plus the metadata the
// analyzers need (in-package test sources, module context for
// re-invoking the go tool).
type Package struct {
	ImportPath string
	Name       string
	Dir        string

	GoFiles     []string // absolute paths, non-test
	TestGoFiles []string // absolute paths, in-package _test.go files

	Fset      *token.FileSet
	Files     []*ast.File // parsed GoFiles, with comments
	TestFiles []*ast.File // parsed TestGoFiles, with comments (not type-checked)

	Types     *types.Package
	TypesInfo *types.Info

	// TypeErrors collects non-fatal type-checking problems. A package
	// that builds under `go build` has none; they are surfaced so
	// mtlint fails loudly instead of silently analyzing partial types.
	TypeErrors []error
}

// goListPkg mirrors the fields of `go list -json` output the loader
// consumes.
type goListPkg struct {
	Dir         string
	ImportPath  string
	Name        string
	GoFiles     []string
	TestGoFiles []string
	Export      string
	ImportMap   map[string]string
	DepOnly     bool
	Standard    bool
	Incomplete  bool
	Error       *struct{ Err string }
}

// Load enumerates the packages matching patterns (relative to dir),
// parses their sources, and type-checks them against the gc export
// data produced by `go list -export`. The export-data route keeps the
// loader independent of golang.org/x/tools while still giving every
// analyzer full types.Info: the go command compiles (or reuses from
// the build cache) each dependency and reports the archive path, and
// go/importer reads those archives directly.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{
		"list", "-e", "-deps", "-export",
		"-json=Dir,ImportPath,Name,GoFiles,TestGoFiles,Export,ImportMap,DepOnly,Standard,Incomplete,Error",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list: %w\n%s", err, stderr.String())
	}

	var (
		targets   []*goListPkg
		exports   = make(map[string]string)
		importMap = make(map[string]string)
	)
	dec := json.NewDecoder(&stdout)
	for {
		var p goListPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %w", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		for from, to := range p.ImportMap {
			importMap[from] = to
		}
		if !p.DepOnly && !p.Standard && p.Name != "" {
			cp := p
			targets = append(targets, &cp)
		}
	}

	fset := token.NewFileSet()
	imp := &exportImporter{
		gc: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
			if to, ok := importMap[path]; ok {
				path = to
			}
			f, ok := exports[path]
			if !ok {
				return nil, fmt.Errorf("no export data for %q", path)
			}
			return os.Open(f)
		}),
	}

	var out []*Package
	for _, t := range targets {
		pkg, err := typecheck(fset, imp, t)
		if err != nil {
			return nil, fmt.Errorf("loading %s: %w", t.ImportPath, err)
		}
		out = append(out, pkg)
	}
	return out, nil
}

// exportImporter wraps the gc export-data importer, special-casing
// "unsafe" (which has no export data; go/types represents it as the
// singleton types.Unsafe).
type exportImporter struct {
	gc types.Importer
}

func (i *exportImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	return i.gc.Import(path)
}

func typecheck(fset *token.FileSet, imp types.Importer, lp *goListPkg) (*Package, error) {
	pkg := &Package{
		ImportPath:  lp.ImportPath,
		Name:        lp.Name,
		Dir:         lp.Dir,
		GoFiles:     absAll(lp.Dir, lp.GoFiles),
		TestGoFiles: absAll(lp.Dir, lp.TestGoFiles),
		Fset:        fset,
	}
	for _, f := range pkg.GoFiles {
		af, err := parser.ParseFile(fset, f, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		pkg.Files = append(pkg.Files, af)
	}
	for _, f := range pkg.TestGoFiles {
		af, err := parser.ParseFile(fset, f, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		pkg.TestFiles = append(pkg.TestFiles, af)
	}

	pkg.TypesInfo = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
	conf := types.Config{
		Importer: imp,
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
		Error: func(err error) {
			pkg.TypeErrors = append(pkg.TypeErrors, err)
		},
	}
	tp, err := conf.Check(lp.ImportPath, fset, pkg.Files, pkg.TypesInfo)
	if err != nil && tp == nil {
		return nil, err
	}
	pkg.Types = tp
	return pkg, nil
}

func absAll(dir string, files []string) []string {
	out := make([]string, len(files))
	for i, f := range files {
		if filepath.IsAbs(f) {
			out[i] = f
		} else {
			out[i] = filepath.Join(dir, f)
		}
	}
	return out
}

// GoTool runs the go command with the given arguments in the package's
// module context and returns its combined output. The zeroalloc
// analyzer uses it to obtain `-gcflags=-m` escape-analysis output; the
// build cache replays compiler diagnostics, so repeated runs stay
// cheap.
func (p *Package) GoTool(args ...string) (string, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = p.Dir
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = &buf
	err := cmd.Run()
	if err != nil && !strings.Contains(buf.String(), ":") {
		// Diagnostics-bearing failures still return useful output; a
		// bare failure (tool missing, bad invocation) does not.
		return "", fmt.Errorf("go %s: %w\n%s", strings.Join(args, " "), err, buf.String())
	}
	return buf.String(), nil
}
