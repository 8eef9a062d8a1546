// Command perfbench is the repository's benchmark. It drives one named
// workload through the public entry points users call — the
// experiments runners behind cmd/sweep, sim.New/Runner.Run, and
// serve.New(...).Handler() behind cmd/thermald — checks every output,
// and prints the metrics declared in BENCHMARK.json.
//
// Usage, from the repository root (perfbench/run.sh builds and runs it):
//
//	perfbench --workload paper_sweep --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the last stdout line carries the end-to-end metrics;
// with --trace 1 it carries the per-layer metrics of a traced run, and
// the spans are written under .bench_build/spans. Every workload runs
// in a fresh process: the memo caches for templates, discretizations,
// traces and warm-up states are process-global, so a shared process
// would let one workload warm the next.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// setupSamples is how many cold set-ups feed the reported setup_s
// median: setupSamples-1 fresh child processes plus the run itself.
const setupSamples = 5

// spanDir receives the traced run's spans, inside the checkout's
// build directory.
var spanDir = filepath.Join(".bench_build", "spans")

// benchmark is one named workload. setup builds everything the timed
// phase needs; measure runs the timed phase and the correctness
// check; close releases what setup started.
type benchmark interface {
	setup(b *bench) error
	measure(b *bench) error
	close()
}

var workloads = map[string]func() benchmark{
	"paper_sweep":   func() benchmark { return &paperSweep{} },
	"manycore_grid": func() benchmark { return &manycoreGrid{} },
	"serve_open":    func() benchmark { return &serveOpen{} },
	"serve_hot":     func() benchmark { return &serveHot{} },
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "workload: paper_sweep, manycore_grid, serve_open or serve_hot")
	seed := flag.Int64("seed", 1, "seed for the serve workloads' key draws, arrivals and request mix")
	seconds := flag.Int("seconds", 20, "length of the timed phase in seconds")
	traceFlag := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end metrics")
	setupOnly := flag.Bool("setup-only", false, "run the workload's set-up alone and print its seconds (one setup_s sample)")
	generatorURL := flag.String("generator", "", "run serve_open's load generator against this server URL and print its report")
	writeGolden := flag.Bool("write-golden", false, "record the sim workload's reference reports into perfbench/golden")
	flag.Parse()

	newWL, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		return errors.New("--seconds must be at least 1 and --trace 0 or 1")
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	b := newBench(*name, *seed, time.Duration(*seconds)*time.Second, *traceFlag == 1, spec)
	if *generatorURL != "" {
		return runGenerator(b, *generatorURL)
	}
	w := newWL()
	defer w.close()
	switch {
	case *writeGolden:
		return writeGoldenFor(w, b)
	case *setupOnly:
		s, err := b.timeSetup(w)
		if err != nil {
			return err
		}
		fmt.Println(strconv.FormatFloat(s, 'g', -1, 64))
		return nil
	}

	samples, err := childSetups(b, setupSamples-1)
	if err != nil {
		return err
	}
	own, err := b.timeSetup(w)
	if err != nil {
		return err
	}
	b.setupS = append(samples, own)
	if err := w.measure(b); err != nil {
		return fmt.Errorf("%s: %w", b.name, err)
	}
	return b.finish()
}

// childSetups times n cold set-ups, each in a fresh child process of
// this binary, one after another so they do not contend for CPUs.
func childSetups(b *bench, n int) ([]float64, error) {
	var out []float64
	for i := 0; i < n; i++ {
		stdout, err := runChild(context.Background(), b, "--setup-only")
		if err != nil {
			return nil, fmt.Errorf("set-up sample %d: %w", i, err)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(string(stdout)), 64)
		if err != nil {
			return nil, fmt.Errorf("set-up sample %d: %w", i, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// runChild runs this binary on the same workload, seed and seconds
// with extra flags, waits for it, and returns its standard output.
func runChild(ctx context.Context, b *bench, extra ...string) ([]byte, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locating own binary: %w", err)
	}
	trace := "0"
	if b.traced {
		trace = "1"
	}
	args := append([]string{"--workload", b.name, "--seed", strconv.FormatInt(b.seed, 10),
		"--seconds", strconv.Itoa(int(b.seconds / time.Second)), "--trace", trace}, extra...)
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = os.Stderr
	return cmd.Output()
}

// metricSpec is one metric declared in BENCHMARK.json.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchSpec is the part of BENCHMARK.json the harness reads: the
// metric lists decide what the last line carries, so the printed set
// cannot drift from the declared one.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading the metric declarations: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	if len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 {
		return nil, fmt.Errorf("%s declares no metrics", path)
	}
	return &s, nil
}

// bench is the state one run shares across its workload: settings,
// the tracer, the measured values and the operation counters.
type bench struct {
	name    string
	seed    int64
	seconds time.Duration
	traced  bool
	spec    *benchSpec
	tr      *tracer

	setupS    []float64
	values    map[string]float64
	attempted int
	failed    int
	report    []string
}

func newBench(name string, seed int64, seconds time.Duration, traced bool, spec *benchSpec) *bench {
	b := &bench{name: name, seed: seed, seconds: seconds, traced: traced, spec: spec,
		values: map[string]float64{}}
	if traced {
		b.tr = newTracer()
	}
	return b
}

// timeSetup runs the workload's set-up and returns its host seconds.
func (b *bench) timeSetup(w benchmark) (float64, error) {
	start := time.Now()
	if err := w.setup(b); err != nil {
		return 0, fmt.Errorf("set-up: %w", err)
	}
	return time.Since(start).Seconds(), nil
}

// set records a measured metric value.
func (b *bench) set(name string, v float64) { b.values[name] = v }

// note adds a line to the human-readable report printed before the
// result line.
func (b *bench) note(format string, args ...any) {
	b.report = append(b.report, fmt.Sprintf(format, args...))
}

// op counts one attempted operation and whether it failed.
func (b *bench) op(failed bool) {
	b.attempted++
	if failed {
		b.failed++
	}
}

// result is the last stdout line.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finish prints the report and the result line. End-to-end metrics
// must all be measured; per-layer metrics a workload does not exercise
// read 0, as listed in perfbench/README.md.
func (b *bench) finish() error {
	b.set("setup_s", median(b.setupS))
	b.set("peak_rss_mb", peakRSSMB())
	if err := b.tr.write(spanDir, fmt.Sprintf("%s-seed%d.jsonl", b.name, b.seed)); err != nil {
		return err
	}
	if b.attempted == 0 {
		return errors.New("no operation was attempted")
	}

	units := map[string]string{}
	for _, m := range append(append([]metricSpec(nil), b.spec.EndToEnd...), b.spec.PerLayer...) {
		units[m.Name] = m.Unit
	}
	for _, line := range metadata() {
		fmt.Println("# " + line)
	}
	fmt.Printf("# workload %s seed %d seconds %.0f traced %v\n", b.name, b.seed, b.seconds.Seconds(), b.traced)
	fmt.Printf("# setup_s samples %v\n", b.setupS)
	for _, line := range b.report {
		fmt.Println("# " + line)
	}
	for _, n := range sortedKeys(b.values) {
		u, ok := units[n]
		if !ok {
			return fmt.Errorf("metric %s is measured but not declared in BENCHMARK.json", n)
		}
		fmt.Printf("# %-34s %.6g %s\n", n, b.values[n], u)
	}
	fmt.Printf("# attempted %d failed %d fail_frac %.6g\n", b.attempted, b.failed,
		float64(b.failed)/float64(b.attempted))

	declared := b.spec.EndToEnd
	if b.traced {
		declared = b.spec.PerLayer
	}
	out := result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed,
		Metrics: map[string]metricJSON{}}
	for _, m := range declared {
		v, ok := b.values[m.Name]
		if !ok && !b.traced {
			return fmt.Errorf("end-to-end metric %s was not measured", m.Name)
		}
		out.Metrics[m.Name] = metricJSON{Value: v, Unit: m.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if b.failed > 0 {
		return fmt.Errorf("%d of %d operations failed", b.failed, b.attempted)
	}
	return nil
}

// gomaxprocs is the worker count every default-parallelism layer uses.
func gomaxprocs() int { return runtime.GOMAXPROCS(0) }
