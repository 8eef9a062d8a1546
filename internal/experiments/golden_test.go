package experiments

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

const goldenPath = "testdata/reports.golden"

// TestReportsMatchGolden pins every printed report byte.
// testdata/reports.golden is the stdout of `go run ./cmd/sweep
// -ablations -simtime 0.02`. The test renders the artifacts the way
// cmd/sweep prints them — Registry() then ExtensionRegistry(), each
// report after a "==> name: desc" header and a blank line, manycore on
// its default 4x4 grid — and compares each with its section of the
// golden, so a moved byte fails the subtest named after its artifact.
// The SIMD and noasm builds print the same bytes, so one golden serves
// both. Re-record it from the repository root with
//
//	go run ./cmd/sweep -ablations -simtime 0.02 > internal/experiments/testdata/reports.golden
//
// A re-recorded golden is a changed check, so CHANGES.md records what
// moved and why.
func TestReportsMatchGolden(t *testing.T) {
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	want := splitReports(t, string(data))
	runners := append(Registry(), ExtensionRegistry()...)
	if len(want) != len(runners) {
		t.Errorf("%s holds %d reports, the registries %d", goldenPath, len(want), len(runners))
	}

	opt := DefaultOptions()
	opt.SimTime = 0.02
	for _, r := range runners {
		t.Run(r.Name, func(t *testing.T) {
			w, ok := want[r.Name]
			if !ok {
				t.Fatalf("%s has no %s report", goldenPath, r.Name)
			}
			res, err := r.Run(opt)
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("==> %s: %s\n\n%s\n", r.Name, r.Desc, res.Render()); got != w {
				t.Error(firstDiff(got, w))
			}
		})
	}
}

// splitReports cuts a recorded sweep into its reports, keyed by
// artifact name. Each report runs from its "==> " header line up to the
// next one.
func splitReports(t *testing.T, data string) map[string]string {
	t.Helper()
	reports := make(map[string]string)
	for data != "" {
		if !strings.HasPrefix(data, "==> ") {
			t.Fatalf("%s: report does not start with a \"==> \" header: %.40q", goldenPath, data)
		}
		report := data
		if end := strings.Index(data, "\n==> "); end >= 0 {
			report = data[:end+1]
		}
		data = data[len(report):]
		name, _, _ := strings.Cut(strings.TrimPrefix(report, "==> "), ":")
		reports[name] = report
	}
	return reports
}

// firstDiff names the first line where a rendered report departs from
// its golden copy.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("report line %d differs from %s\n got: %q\nwant: %q", i+1, goldenPath, gl, wl)
		}
	}
	return "reports differ"
}
