// Package experiments reproduces every table and figure of the paper's
// evaluation: the Banias measurements (Table 1), the taxonomy and
// configuration tables (Tables 2–4), the policy studies (Figure 3,
// Tables 5–8, Figures 5 and 7), the PI-design analysis of §4, and the
// sensitivity/validation studies of §5.3. Each experiment returns a
// result value with a Render method that prints the table or series in
// the paper's format next to the published values.
//
//mtlint:deterministic
package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"multitherm/internal/core"
	"multitherm/internal/floorplan"
	"multitherm/internal/metrics"
	"multitherm/internal/parallel"
	"multitherm/internal/sim"
	"multitherm/internal/units"
	"multitherm/internal/workload"
)

// Options controls experiment fidelity.
type Options struct {
	// SimTime is the simulated silicon time per run. The paper uses
	// 0.5 s; shorter times trade precision for speed.
	SimTime units.Seconds
	// Workloads restricts the workload set (nil = all 12).
	Workloads []workload.Mix
	// Parallelism bounds the worker pool (parallel.ForEach) that fans
	// independent grid cells, and Table 1's ranging rows, out across
	// CPUs: 0 uses GOMAXPROCS, 1 runs every batch and row on one worker
	// in order.
	// Results are deterministic — identical at any parallelism level —
	// because every cell and row is independent and results are slotted
	// by index, not arrival order.
	Parallelism int
	// Grid selects the generated floorplan the many-core extension
	// runs on (cmd/sweep -floorplan). The zero value picks the
	// experiment's 4x4 mixed-rows default.
	Grid floorplan.GridSpec
}

// DefaultOptions runs the full paper configuration.
func DefaultOptions() Options {
	return Options{SimTime: 0.5}
}

// QuickOptions runs shortened simulations for smoke tests.
func QuickOptions() Options {
	return Options{SimTime: 0.1}
}

func (o Options) workloads() []workload.Mix {
	if len(o.Workloads) > 0 {
		return o.Workloads
	}
	return workload.Mixes
}

func (o Options) simConfig() sim.Config {
	cfg := sim.DefaultConfig()
	if o.SimTime > 0 {
		cfg.SimTime = o.SimTime
	}
	return cfg
}

// mixes is the option's paper workload set as a grid population axis.
func (o Options) mixes() []population {
	ms := o.workloads()
	out := make([]population, len(ms))
	for i, m := range ms {
		out[i] = population{name: m.Name, mix: m}
	}
	return out
}

// population is one workload of a grid: a paper mix, one benchmark
// pinned per core (sim.New), or — when procs is set — a process list
// the OS time-shares across the cores (sim.NewTimeshared).
type population struct {
	name  string
	mix   workload.Mix
	procs []string
}

// dtmOff is the grid policy that runs a paper mix with DTM disabled
// (sim.NewUnthrottled): the unconstrained reference of the §5.3
// duty-cycle validation. Its mechanism lies outside the taxonomy, so no
// policy cell equals it.
var dtmOff = core.PolicySpec{Mechanism: -1}

// grid declares the simulations behind one artifact: every config
// variant × policy × population combination is one cell. A nil variant
// axis runs the options' config and a nil population axis the options'
// workload mixes.
type grid struct {
	variants []sim.Config
	policies []core.PolicySpec
	pops     []population
}

// runGrid runs every cell of g through one runCells call and returns
// the metrics as runs[variant][policy][population].
func runGrid(o Options, g grid) ([][][]*metrics.Run, error) {
	if g.variants == nil {
		g.variants = []sim.Config{o.simConfig()}
	}
	if g.pops == nil {
		g.pops = o.mixes()
	}
	cells := make([]cell, 0, len(g.variants)*len(g.policies)*len(g.pops))
	for _, cfg := range g.variants {
		for _, policy := range g.policies {
			for _, pop := range g.pops {
				cells = append(cells, cell{cfg: cfg, policy: policy, pop: pop})
			}
		}
	}
	flat, err := runCells(o, cells)
	if err != nil {
		return nil, err
	}
	runs := make([][][]*metrics.Run, len(g.variants))
	for v := range runs {
		runs[v] = make([][]*metrics.Run, len(g.policies))
		for p := range runs[v] {
			runs[v][p], flat = flat[:len(g.pops)], flat[len(g.pops):]
		}
	}
	return runs, nil
}

// cell is one (config, policy, population) simulation of a grid.
type cell struct {
	cfg    sim.Config
	policy core.PolicySpec
	pop    population
}

// newRunner builds the cell's simulation with the runner kind its
// policy and population call for.
func (c cell) newRunner() (*sim.Runner, error) {
	switch {
	case c.policy == dtmOff:
		return sim.NewUnthrottled(c.cfg, c.pop.mix)
	case c.pop.procs != nil:
		return sim.NewTimeshared(c.cfg, c.pop.name, c.pop.procs, c.policy, 0)
	default:
		return sim.New(c.cfg, c.pop.mix, c.policy)
	}
}

// wrap names the cell in an error that stopped it.
func (c cell) wrap(err error) error {
	policy := c.policy.String()
	if c.policy == dtmOff {
		policy = "DTM off"
	}
	return fmt.Errorf("experiments: %s on %s: %w", policy, c.pop.name, err)
}

// runCells executes the given cells and slots each result at its input
// index. sim.CutBatches cuts the cells into lockstep batches by
// sim.BatchKey up front, one parallel.ForEach index per batch in cut
// order, and each batch runs through sim.RunBatch. The cut depends only
// on the cells and the worker count, and the results on neither
// (sim.BatchRunner's contract). The error returned is the lowest
// failing lane's of the lowest failing batch.
func runCells(o Options, cells []cell) ([]*metrics.Run, error) {
	keys := make([]sim.BatchKey, len(cells))
	for i, c := range cells {
		k, err := sim.BatchKeyOf(c.cfg)
		if err != nil {
			return nil, c.wrap(err)
		}
		keys[i] = k
	}
	batches := sim.CutBatches(keys, parallel.Workers(o.Parallelism))

	runs := make([]*metrics.Run, len(cells))
	err := parallel.ForEach(context.Background(), o.Parallelism, len(batches),
		func(_ context.Context, bi int) error {
			idx := batches[bi]
			ms, errs := sim.RunBatch(len(idx), func(j int) (*sim.Runner, error) {
				return cells[idx[j]].newRunner()
			})
			for j, ci := range idx {
				if errs[j] != nil {
					return cells[ci].wrap(errs[j])
				}
				runs[ci] = ms[j]
			}
			return nil
		})
	if err != nil {
		return nil, err
	}
	return runs, nil
}

// Result is the common interface of all experiment outputs.
type Result interface {
	// Render returns the human-readable reproduction report.
	Render() string
}

// Runner executes one experiment.
type Runner struct {
	Name string // artifact id: table1, fig3, ...
	Desc string
	Run  func(Options) (Result, error)
}

// Registry lists every reproducible artifact in paper order.
func Registry() []Runner {
	return []Runner{
		{"table1", "Pentium M Banias steady temperatures and ranges", func(o Options) (Result, error) { return RunTable1(o) }},
		{"table2", "thermal control taxonomy", func(Options) (Result, error) { return Table2(), nil }},
		{"table3", "modeled CPU design parameters", func(Options) (Result, error) { return Table3(), nil }},
		{"table4", "four-process workloads", func(Options) (Result, error) { return Table4(), nil }},
		{"pi", "PI controller design, discretization and stability (§4)", func(Options) (Result, error) { return RunPIAnalysis() }},
		{"fig3", "per-workload throughput of non-migration policies", func(o Options) (Result, error) { return RunFig3(o) }},
		{"table5", "average throughput/duty of non-migration policies", func(o Options) (Result, error) { return RunTable5(o) }},
		{"fig5", "hotspot temperatures and DVFS output across migrations", func(o Options) (Result, error) { return RunFig5(o) }},
		{"table6", "counter-based migration results", func(o Options) (Result, error) { return RunTable6(o) }},
		{"table7", "sensor-based migration results", func(o Options) (Result, error) { return RunTable7(o) }},
		{"fig7", "per-workload migration deltas under dist. DVFS", func(o Options) (Result, error) { return RunFig7(o) }},
		{"table8", "all 12 policy combinations", func(o Options) (Result, error) { return RunTable8(o) }},
		{"sensitivity", "100 °C threshold sensitivity (§5.3)", func(o Options) (Result, error) { return RunSensitivity(o) }},
		{"dutyvalid", "duty-cycle metric validation (§5.3)", func(o Options) (Result, error) { return RunDutyValidity(o) }},
	}
}

// Find returns the named runner.
func Find(name string) (Runner, error) {
	for _, r := range Registry() {
		if r.Name == name {
			return r, nil
		}
	}
	var known []string
	for _, r := range Registry() {
		known = append(known, r.Name)
	}
	sort.Strings(known)
	return Runner{}, fmt.Errorf("experiments: unknown artifact %q (known: %s)",
		name, strings.Join(known, ", "))
}
