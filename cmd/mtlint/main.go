// Command mtlint is the repository's domain-specific static-analysis
// gate. It runs the determinism analyzer (internal/analysis/determinism
// has the full contract) over the named packages:
//
//	go run ./cmd/mtlint ./...
//
// determinism flags wall-clock reads, global rand, map iteration, and
// unordered goroutine result collection in //mtlint:deterministic
// packages.
//
// Exit status is 2 on findings, 1 on type errors or infrastructure
// failure, 0 when clean. -json emits machine-readable findings.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"multitherm/internal/analysis/determinism"
	"multitherm/internal/analysis/driver"
)

var analyzers = []*driver.Analyzer{determinism.Analyzer}

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as JSON")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: mtlint [-json] [packages]\n\nAnalyzers:\n")
		for _, a := range analyzers {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-12s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()

	pkgs, err := driver.Load(".", flag.Args()...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mtlint: %v\n", err)
		os.Exit(1)
	}
	failed := false
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			fmt.Fprintf(os.Stderr, "mtlint: %s: type error: %v\n", pkg.ImportPath, terr)
			failed = true
		}
	}

	diags, errs := driver.Run(pkgs, analyzers)
	for _, e := range errs {
		fmt.Fprintf(os.Stderr, "mtlint: %v\n", e)
		failed = true
	}
	if *jsonOut {
		if diags == nil {
			diags = []driver.Diagnostic{}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintf(os.Stderr, "mtlint: %v\n", err)
			os.Exit(1)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	switch {
	case failed:
		os.Exit(1)
	case len(diags) > 0:
		os.Exit(2)
	}
}
