// Command mtlint is the repository's domain-specific static-analysis
// gate: a multichecker over the internal/analysis suite.
//
//	go run ./cmd/mtlint ./...
//
// Analyzers (see internal/analysis/... for the full contracts):
//
//	determinism — wall-clock reads, global rand, map iteration, and
//	              unordered goroutine result collection in
//	              //mtlint:deterministic packages
//	zeroalloc   — heap escapes inside //mtlint:zeroalloc functions
//	              (from `go build -gcflags=-m` output)
//
// Exit status is 2 on findings or type errors, 1 on infrastructure
// failure, 0 when clean. -json emits machine-readable findings.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"

	"multitherm/internal/analysis/determinism"
	"multitherm/internal/analysis/driver"
	"multitherm/internal/analysis/zeroalloc"
)

var all = []*driver.Analyzer{
	determinism.Analyzer,
	zeroalloc.Analyzer,
}

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as JSON")
	run := flag.String("run", "", "only run analyzers matching this regexp")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: mtlint [-json] [-run regexp] [packages]\n\nAnalyzers:\n")
		for _, a := range all {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-12s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()

	analyzers := all
	if *run != "" {
		rx, err := regexp.Compile(*run)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mtlint: bad -run regexp: %v\n", err)
			os.Exit(1)
		}
		analyzers = nil
		for _, a := range all {
			if rx.MatchString(a.Name) {
				analyzers = append(analyzers, a)
			}
		}
	}

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
