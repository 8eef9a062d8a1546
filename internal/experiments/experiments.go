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
	// independent grid cells out across CPUs: 0 uses GOMAXPROCS, 1 runs
	// every batch on one worker in cut order.
	// Results are deterministic — identical at any parallelism level —
	// because every cell is independent and results are slotted by
	// index, not arrival order.
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
	var r *sim.Runner
	var err error
	policy := c.policy.String()
	switch {
	case c.policy == dtmOff:
		policy = "DTM off"
		r, err = sim.NewUnthrottled(c.cfg, c.pop.mix)
	case c.pop.procs != nil:
		r, err = sim.NewTimeshared(c.cfg, c.pop.name, c.pop.procs, c.policy, 0)
	default:
		r, err = sim.New(c.cfg, c.pop.mix, c.policy)
	}
	if err != nil {
		return nil, fmt.Errorf("experiments: %s on %s: %w", policy, c.pop.name, err)
	}
	return r, nil
}

// runCells executes the given cells and slots each result at its input
// index. Cells are grouped by sim.BatchKey in first-seen order and each
// group is cut into lockstep batches of consecutive cells up front
// (cutBatches, at most sim.DefaultBatchSize lanes wide), one
// parallel.ForEach index per batch, taken in cut order. Cells sharing a
// key — same thermal template and control period — step through one
// fused panel update (sim.BatchRunner). Batch composition depends only
// on the cells and the worker count, never on timing; results are
// independent of both, because batched stepping is bit-identical to
// sequential stepping (sim.BatchRunner's contract).
func runCells(o Options, cells []cell) ([]*metrics.Run, error) {
	groupOf := map[sim.BatchKey]int{}
	var groups [][]int
	for i, c := range cells {
		k, err := sim.BatchKeyOf(c.cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s on %s: %w", c.policy, c.pop.name, err)
		}
		g, seen := groupOf[k]
		if !seen {
			g = len(groups)
			groupOf[k] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], i)
	}
	batches := cutBatches(groups, sim.DefaultBatchSize(), parallel.Workers(o.Parallelism))

	runs := make([]*metrics.Run, len(cells))
	err := parallel.ForEach(context.Background(), o.Parallelism, len(batches),
		func(_ context.Context, bi int) error {
			idx := batches[bi]
			runners := make([]*sim.Runner, len(idx))
			for j, ci := range idx {
				r, err := cells[ci].newRunner()
				if err != nil {
					return err
				}
				runners[j] = r
			}
			br, err := sim.NewBatchRunner(runners)
			if err != nil {
				return err
			}
			ms, err := br.Run()
			if err != nil {
				return err
			}
			for j, ci := range idx {
				runs[ci] = ms[j]
			}
			return nil
		})
	if err != nil {
		return nil, err
	}
	return runs, nil
}

// cutBatches cuts each group of same-key cells into batches of
// consecutive cells, in group order. A batch is at most width lanes
// wide, and at most ceil(len(group)/workers), so one group spreads over
// every worker instead of leaving some idle: three cells on two workers
// run as a two-lane and a one-lane batch, not one three-lane batch.
// With one worker the cut is width-sized.
func cutBatches(groups [][]int, width, workers int) [][]int {
	var batches [][]int
	for _, idx := range groups {
		w := min(width, (len(idx)+workers-1)/workers)
		for len(idx) > 0 {
			n := min(len(idx), w)
			batches = append(batches, idx[:n])
			idx = idx[n:]
		}
	}
	return batches
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
