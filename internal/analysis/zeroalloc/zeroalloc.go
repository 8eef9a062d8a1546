// Package zeroalloc turns the repository's zero-allocation hot-path
// contracts into a compile-time gate. Functions marked
// //mtlint:zeroalloc — the fused RK4 stages, the packed GEMV/GEMM
// kernels, the exact-ZOH tick, the batched lockstep tick — run
// millions of times per simulated second; a single stray append or
// escaping closure turns a 28 µs tick into a GC treadmill, and the
// existing testing.AllocsPerRun spot checks only catch the paths a
// test happens to drive. This analyzer instead asks the compiler: it
// runs `go build -gcflags=-m` on the package (the build cache replays
// the diagnostics, so this is cheap), parses the escape-analysis
// output, and fails on any heap allocation whose position falls inside
// a marked function's body.
//
// Cold panic guards must hoist their fmt.Sprintf formatting into
// unmarked helpers: interface conversions for format arguments are
// heap allocations and are flagged like any other.
//
// One allocation has no escape line: an append that outgrows its
// slice's capacity reallocates through runtime.growslice, which -m
// never reports. So the analyzer also walks each marked body and flags
// every call to the builtin append, resolved through the type
// information so that a local function of that name is left alone.
//
// A generic body has no escape lines of its own: the compiler builds
// it only where it is instantiated, so -m reports its allocations, if
// at all, against the instantiating package. A marked generic function
// or method of a generic type is therefore reported as uncheckable;
// such a body is pinned with testing.AllocsPerRun instead.
package zeroalloc

import (
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"strings"

	"multitherm/internal/analysis/driver"
)

// Analyzer is the zero-allocation check.
var Analyzer = &driver.Analyzer{
	Name: "zeroalloc",
	Doc:  "fail on heap escapes inside //mtlint:zeroalloc-marked functions, from -gcflags=-m output",
	Run:  run,
}

// Marker is the function-level opt-in directive.
const Marker = "zeroalloc"

// markedFunc is one annotated function and the source span of its
// body.
type markedFunc struct {
	name      string
	file      string // base name
	from, to  int    // body line range, inclusive
	declPos   token.Pos
	fileIndex int
	body      *ast.BlockStmt
	generic   bool // has type parameters, or a generic receiver
}

func run(pass *driver.Pass) error {
	pkg := pass.Pkg
	marked := collectMarked(pkg)
	if len(marked) == 0 {
		return nil
	}
	for _, fn := range marked {
		if fn.generic {
			pass.Reportf(fn.declPos, "cannot check generic function %s: -gcflags=-m compiles it only where it is instantiated; pin it with testing.AllocsPerRun", fn.name)
		}
		reportAppends(pass, fn)
	}
	// Build to a scratch file so analyzing a main package never drops
	// an executable into the tree; for non-main packages the archive
	// lands there instead (-o must name a file, not a directory — with
	// a directory the go tool fails "no main packages to build" for
	// library packages and no diagnostics are emitted at all). The
	// build cache replays -m diagnostics on hits.
	scratch, err := os.MkdirTemp("", "mtlint-zeroalloc-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	out, err := pkg.GoTool("build", "-o", filepath.Join(scratch, "out"), "-gcflags=-m", ".")
	if err != nil {
		return err
	}
	escapes := ParseEscapes(strings.NewReader(out))
	for _, esc := range escapes {
		for _, fn := range marked {
			if esc.File != fn.file || esc.Line < fn.from || esc.Line > fn.to {
				continue
			}
			pass.Reportf(posFor(pkg, fn, esc.Line, esc.Col),
				"heap allocation in zeroalloc function %s: %s", fn.name, esc.Msg)
		}
	}
	return nil
}

func collectMarked(pkg *driver.Package) []markedFunc {
	var out []markedFunc
	for i, file := range pkg.Files {
		base := path.Base(pkg.GoFiles[i])
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !driver.FuncMarked(fn, Marker) {
				continue
			}
			sig := pkg.TypesInfo.Defs[fn.Name].Type().(*types.Signature)
			out = append(out, markedFunc{
				name:      fn.Name.Name,
				file:      base,
				from:      pkg.Fset.Position(fn.Body.Pos()).Line,
				to:        pkg.Fset.Position(fn.Body.End()).Line,
				declPos:   fn.Pos(),
				fileIndex: i,
				body:      fn.Body,
				generic:   sig.TypeParams().Len() > 0 || sig.RecvTypeParams().Len() > 0,
			})
		}
	}
	return out
}

// reportAppends flags every call to the builtin append in fn's body,
// closures included: its growth allocates without an escape line.
func reportAppends(pass *driver.Pass, fn markedFunc) {
	ast.Inspect(fn.body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if b, ok := pass.TypesInfo().Uses[id].(*types.Builtin); ok && b.Name() == "append" {
				pass.Reportf(call.Pos(), "append in zeroalloc function %s: growth past capacity allocates in runtime.growslice, which -gcflags=-m does not report", fn.name)
			}
		}
		return true
	})
}

// posFor converts a (line, col) escape position back into a token.Pos
// inside the function's file so diagnostics anchor on the allocation,
// falling back to the declaration when the line cannot be resolved.
func posFor(pkg *driver.Package, fn markedFunc, line, col int) token.Pos {
	tf := pkg.Fset.File(fn.declPos)
	if tf == nil || line < 1 || line > tf.LineCount() {
		return fn.declPos
	}
	p := tf.LineStart(line)
	return p + token.Pos(col-1)
}
