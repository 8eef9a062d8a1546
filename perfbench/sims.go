package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"multitherm/internal/core"
	"multitherm/internal/experiments"
	"multitherm/internal/floorplan"
	"multitherm/internal/sim"
	"multitherm/internal/thermal"
	"multitherm/internal/units"
	"multitherm/internal/workload"
)

// Fixed inputs of the two simulation workloads. The paper's fixed
// mixes and the generated grid are their inputs; the seed does not
// change them.
const (
	// paperSimTime is the simulated time per paper_sweep cell.
	paperSimTime units.Seconds = 0.02
	// manycoreSimTime is the simulated time per manycore_grid cell.
	// It spans one osched fairness rotation (20 ms timeslice).
	manycoreSimTime units.Seconds = 0.025
	// warmSimTime is the set-up pass: every artifact once this briefly,
	// which builds every memo the timed passes read.
	warmSimTime units.Seconds = 0.001
	// manycoreGridSpec is the grid cmd/sweep -floorplan 16x16 runs.
	manycoreGridSpec = "16x16"
	// minPasses is the fewest timed passes a run makes.
	minPasses = 3
)

// goldenDir holds the reference reports recorded at the simulated
// times above.
var goldenDir = filepath.Join("perfbench", "golden")

// computesCells lists the artifacts that simulate cells; a traced run
// reports each one's median seconds.
var computesCells = map[string]bool{
	"table1": true, "fig3": true, "table5": true, "fig5": true, "table6": true, "table7": true,
	"fig7": true, "table8": true, "sensitivity": true, "dutyvalid": true, "manycore": true,
}

// paperTable8 is the paper's Table 8 column of relative throughput
// (the baseline, Dist. stop-go, is 1 by definition).
var paperTable8 = map[string]float64{
	"Global stop-go": 0.62, "Global DVFS": 2.1, "Dist. DVFS": 2.5,
	"Global stop-go + counter-based migration": 1.2, "Global DVFS + counter-based migration": 2.2,
	"Dist. stop-go + counter-based migration": 2, "Dist. DVFS + counter-based migration": 2.6,
	"Global stop-go + sensor-based migration": 1.2, "Global DVFS + sensor-based migration": 2.1,
	"Dist. stop-go + sensor-based migration": 2.1, "Dist. DVFS + sensor-based migration": 2.6,
}

// paperSweep runs every artifact of experiments.Registry(), as
// cmd/sweep does, at default batching and GOMAXPROCS workers.
type paperSweep struct {
	golden map[string]string
}

func (p *paperSweep) setup(b *bench) error {
	var err error
	if p.golden, err = loadGolden("paper_sweep"); err != nil {
		return err
	}
	return warmPass(b, experiments.Registry(), experiments.Options{SimTime: warmSimTime})
}

func (p *paperSweep) measure(b *bench) error {
	runPasses(b, experiments.Registry(), experiments.Options{SimTime: paperSimTime}, p.golden,
		func(res experiments.Result) {
			if t8, ok := res.(*experiments.Table8Result); ok {
				b.set("experiments.paper_err", paperErr(t8))
			}
		})
	if !b.traced {
		return nil
	}
	return tickBreakdown(b, paperTickCell(paperSimTime))
}

// paperTickCell is the N=4 tick breakdown's cell: distributed DVFS with
// sensor-based migration over every paper mix.
func paperTickCell(simTime units.Seconds) tickCell {
	cfg := sim.DefaultConfig()
	cfg.SimTime = simTime
	return tickCell{
		cfg:          cfg,
		policy:       core.PolicySpec{Mechanism: core.DVFS, Scope: core.Distributed, Migration: core.SensorMigration},
		mixes:        workload.Mixes,
		shortSimTime: paperSimTime,
	}
}

func (p *paperSweep) close() {}

// paperErr is the mean absolute error of Table 8's reproduced relative
// throughput against the paper column. It is simulated, so it repeats
// exactly for one simulated time.
func paperErr(t *experiments.Table8Result) float64 {
	var sum float64
	var n int
	for _, spec := range t.Specs {
		want, ok := paperTable8[spec.String()]
		if !ok {
			continue
		}
		sum += math.Abs(t.Relative(spec) - want)
		n++
	}
	return sum / float64(n)
}

// manycoreGrid runs the manycore extension on the generated 16x16
// grid, as cmd/sweep -floorplan 16x16 does.
type manycoreGrid struct {
	golden map[string]string
	runner experiments.Runner
	grid   floorplan.GridSpec
}

func (m *manycoreGrid) setup(b *bench) error {
	var err error
	if m.golden, err = loadGolden("manycore_grid"); err != nil {
		return err
	}
	if m.runner, err = experiments.FindExtension("manycore"); err != nil {
		return err
	}
	s := time.Now()
	if m.grid, err = floorplan.ParseGridSpec(manycoreGridSpec); err != nil {
		return err
	}
	e := time.Now()
	b.set("floorplan.grid_ms", ms(e.Sub(s)))
	b.tr.record(0, 0, "floorplan.Grid", s, e, 0)
	return warmPass(b, []experiments.Runner{m.runner}, experiments.Options{SimTime: warmSimTime, Grid: m.grid})
}

func (m *manycoreGrid) measure(b *bench) error {
	runPasses(b, []experiments.Runner{m.runner}, experiments.Options{SimTime: manycoreSimTime, Grid: m.grid}, m.golden, nil)
	if !b.traced {
		return nil
	}
	// The representative cell is the artifact's third: distributed
	// DVFS with sensor-based migration over the 3:2 timeshared pool.
	cfg, err := gridConfig(m.grid, manycoreSimTime)
	if err != nil {
		return err
	}
	return tickBreakdown(b, tickCell{
		cfg:          cfg,
		policy:       core.PolicySpec{Mechanism: core.DVFS, Scope: core.Distributed, Migration: core.SensorMigration},
		procs:        gridPopulation(cfg.Floorplan.NumCores()),
		label:        cfg.Floorplan.Name,
		shortSimTime: 0.002,
	})
}

// gridConfig wires a generated grid the way experiments.RunManycore and
// the server's grid cells do: fitted lumped-RC parameters and per-class
// DVFS ceilings.
func gridConfig(grid floorplan.GridSpec, simTime units.Seconds) (sim.Config, error) {
	fp, err := floorplan.Grid(grid)
	if err != nil {
		return sim.Config{}, err
	}
	cfg := sim.DefaultConfig()
	cfg.SimTime = simTime
	cfg.Floorplan = fp
	cfg.Thermal = thermal.FitParams(fp)
	for _, s := range floorplan.GridCoreScales(grid) {
		cfg.CoreMaxScale = append(cfg.CoreMaxScale, units.ScaleFactor(s))
	}
	return cfg, nil
}

func (m *manycoreGrid) close() {}

// gridPopulation is the 3:2 oversubscribed process population the
// manycore extension and grid serve cells tile from the benchmark pool.
func gridPopulation(nCores int) []string {
	pool := workload.Benchmarks()
	out := make([]string, nCores+nCores/2)
	for i := range out {
		out[i] = pool[i%len(pool)]
	}
	return out
}

// warmPass runs the artifacts once at the set-up simulated time.
func warmPass(b *bench, runners []experiments.Runner, opt experiments.Options) error {
	for _, r := range runners {
		s := time.Now()
		if _, err := r.Run(opt); err != nil {
			return fmt.Errorf("set-up pass of %s: %w", r.Name, err)
		}
		b.tr.record(0, 0, "setup.experiments."+r.Name, s, time.Now(), 0)
	}
	return nil
}

// runPasses repeats full passes over the runners until the run's
// seconds are spent, checks every report against the reference, and
// records run_s (median pass), the pass-latency percentiles (a user of
// cmd/sweep waits for the whole pass) and, traced, each artifact's
// median seconds.
func runPasses(b *bench, runners []experiments.Runner, opt experiments.Options, golden map[string]string,
	onResult func(experiments.Result)) {
	meter := startBusy()
	var passS []float64
	perArtifact := map[string][]float64{}
	start := time.Now()
	for morePasses(passS, start, b.seconds) {
		passID := b.tr.id()
		p0 := time.Now()
		for _, r := range runners {
			s := time.Now()
			res, err := r.Run(opt)
			e := time.Now()
			b.tr.record(passID, 0, "experiments."+r.Name, s, e, 0)
			if err != nil {
				b.op(true)
				fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", r.Name, err)
				continue
			}
			if got := res.Render(); got != golden[r.Name] {
				b.op(true)
				fmt.Fprintf(os.Stderr, "perfbench: %s report differs from %s\n", r.Name, goldenDir)
			} else {
				b.op(false)
			}
			if computesCells[r.Name] {
				perArtifact[r.Name] = append(perArtifact[r.Name], e.Sub(s).Seconds())
			}
			if onResult != nil {
				onResult(res)
			}
		}
		p1 := time.Now()
		b.tr.add(passID, 0, 0, "pass", p0, p1, 0)
		passS = append(passS, p1.Sub(p0).Seconds())
	}
	meter.stop(b)
	b.set("run_s", median(passS))
	b.set("p50_ms", 1e3*median(passS))
	b.set("p90_ms", 1e3*percentile(passS, 90))
	b.set("p99_ms", 1e3*percentile(passS, 99))
	b.note("%d passes at %.3g s simulated per cell (p99_ms is the slowest pass); pass seconds %.3f",
		len(passS), float64(opt.SimTime), passS)
	if b.traced {
		for name, xs := range perArtifact {
			b.set("experiments."+name+"_s", median(xs))
		}
	}
}

// morePasses reports whether a run should start another pass: always
// until minPasses, then only if a pass of median length still ends
// within the run's seconds.
func morePasses(passS []float64, start time.Time, seconds time.Duration) bool {
	if len(passS) < minPasses {
		return true
	}
	return time.Since(start).Seconds()+median(passS) <= seconds.Seconds()
}

// loadGolden reads a reference report file: sections headed
// "==> <artifact>" holding that artifact's Render output plus one
// newline, so reports with and without a final newline round-trip.
func loadGolden(name string) (map[string]string, error) {
	f, err := os.Open(filepath.Join(goldenDir, name+".txt"))
	if err != nil {
		return nil, fmt.Errorf("reading reference reports: %w", err)
	}
	defer f.Close()
	out := map[string]string{}
	var cur string
	var body strings.Builder
	flush := func() {
		if cur != "" {
			out[cur] = strings.TrimSuffix(body.String(), "\n")
		}
		body.Reset()
	}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if name, ok := strings.CutPrefix(line, "==> "); ok {
			flush()
			cur = name
			continue
		}
		body.WriteString(line)
		body.WriteByte('\n')
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading reference reports: %w", err)
	}
	return out, nil
}

// writeGoldenFor records one pass of a sim workload's reports as its
// reference file.
func writeGoldenFor(w benchmark, b *bench) error {
	var runners []experiments.Runner
	var opt experiments.Options
	switch w.(type) {
	case *paperSweep:
		runners, opt = experiments.Registry(), experiments.Options{SimTime: paperSimTime}
	case *manycoreGrid:
		r, err := experiments.FindExtension("manycore")
		if err != nil {
			return err
		}
		grid, err := floorplan.ParseGridSpec(manycoreGridSpec)
		if err != nil {
			return err
		}
		runners, opt = []experiments.Runner{r}, experiments.Options{SimTime: manycoreSimTime, Grid: grid}
	default:
		return fmt.Errorf("workload %s checks its responses against direct simulation, not a reference file", b.name)
	}
	var sb strings.Builder
	for _, r := range runners {
		res, err := r.Run(opt)
		if err != nil {
			return err
		}
		fmt.Fprintf(&sb, "==> %s\n%s\n", r.Name, res.Render())
	}
	return os.WriteFile(filepath.Join(goldenDir, b.name+".txt"), []byte(sb.String()), 0o644)
}
