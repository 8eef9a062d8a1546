package experiments

import (
	"fmt"
	"math"

	"multitherm/internal/control"
	"multitherm/internal/core"
	"multitherm/internal/metrics"
	"multitherm/internal/sim"
	"multitherm/internal/units"
)

// The artifacts in this file go beyond the paper's evaluation, covering
// the extension axes its §9 names (heterogeneous cores) and the design
// ablations DESIGN.md calls out. They are reached through
// ExtensionRegistry / cmd/sweep -ablations.

// ExtensionRegistry lists the beyond-the-paper artifacts.
func ExtensionRegistry() []Runner {
	return []Runner{
		{"hetero", "policies on a performance-heterogeneous (big.LITTLE-style) chip (§9 extension)",
			func(o Options) (Result, error) { return RunHetero(o) }},
		{"ablation-stall", "stop-go stall-interval sweep (10/30/60 ms)",
			func(o Options) (Result, error) { return RunStallAblation(o) }},
		{"ablation-setpoint", "DVFS setpoint-margin sweep (1/2.4/5 °C)",
			func(o Options) (Result, error) { return RunSetpointAblation(o) }},
		{"ablation-epoch", "migration epoch sweep (2/10/50 ms)",
			func(o Options) (Result, error) { return RunEpochAblation(o) }},
		{"ablation-pid", "PI vs PID derivative-term study (§4.1 remark)",
			func(o Options) (Result, error) { return RunPIDAblation() }},
		{"multiproc", "time-shared multiprogramming: 6 processes on 4 cores (§6 extension)",
			func(o Options) (Result, error) { return RunMultiproc(o) }},
		{"manycore", "taxonomy on generated 16-1024-core grids via the sparse Krylov solve",
			func(o Options) (Result, error) { return RunManycore(o) }},
	}
}

// FindExtension returns the named extension runner.
func FindExtension(name string) (Runner, error) {
	for _, r := range ExtensionRegistry() {
		if r.Name == name {
			return r, nil
		}
	}
	return Runner{}, fmt.Errorf("experiments: unknown extension artifact %q", name)
}

// --------------------------------------------------------------- hetero

// HeteroResult compares the main taxonomy cells on a homogeneous chip
// versus one where two of the four cores are capped at 70 % frequency.
type HeteroResult struct {
	Specs []core.PolicySpec
	Homo  map[core.PolicySpec]metrics.Summary
	Het   map[core.PolicySpec]metrics.Summary
}

// RunHetero evaluates the §9 heterogeneous-cores extension.
func RunHetero(o Options) (*HeteroResult, error) {
	specs := []core.PolicySpec{
		core.Baseline,
		{Mechanism: core.DVFS, Scope: core.Global},
		{Mechanism: core.DVFS, Scope: core.Distributed},
		{Mechanism: core.DVFS, Scope: core.Distributed, Migration: core.SensorMigration},
	}
	out := &HeteroResult{
		Specs: specs,
		Homo:  map[core.PolicySpec]metrics.Summary{},
		Het:   map[core.PolicySpec]metrics.Summary{},
	}
	het := o.simConfig()
	het.CoreMaxScale = []units.ScaleFactor{1, 1, 0.7, 0.7}
	runs, err := runGrid(o, grid{variants: []sim.Config{o.simConfig(), het}, policies: specs})
	if err != nil {
		return nil, err
	}
	for p, spec := range specs {
		out.Homo[spec] = metrics.Summarize(spec.String(), runs[0][p])
		out.Het[spec] = metrics.Summarize(spec.String(), runs[1][p])
	}
	return out, nil
}

// Render implements Result.
func (h *HeteroResult) Render() string {
	t := newTable("Extension (§9): performance-heterogeneous chip (cores 2,3 capped at 0.7)",
		"policy", "homogeneous BIPS", "hetero BIPS", "hetero retains")
	for _, spec := range h.Specs {
		ho, he := h.Homo[spec], h.Het[spec]
		ratio := 0.0
		if ho.MeanBIPS > 0 {
			ratio = float64(he.MeanBIPS / ho.MeanBIPS)
		}
		t.add(spec.String(),
			fmt.Sprintf("%.2f", ho.MeanBIPS),
			fmt.Sprintf("%.2f", he.MeanBIPS),
			fmt.Sprintf("%.0f%%", ratio*100))
	}
	return t.String() + "Under thermal duress, capping half the cores costs the DVFS policies\n" +
		"almost nothing (their controllers already operate below the cap) and can\n" +
		"even help naive stop-go, for which the cap acts as a built-in static\n" +
		"throttle that avoids 30 ms stalls — heterogeneity changes the operating\n" +
		"points, not the taxonomy's ordering.\n"
}

// ------------------------------------------------------------ ablations

// SweepResult is a generic one-knob ablation over a policy.
type SweepResult struct {
	Knob   string
	Policy core.PolicySpec
	Labels []string
	BIPS   []units.BIPS
	Duty   []units.ScaleFactor
	Worst  []units.Celsius
}

// Render implements Result.
func (s *SweepResult) Render() string {
	t := newTable(fmt.Sprintf("Ablation: %s under %s", s.Knob, s.Policy),
		s.Knob, "BIPS", "duty cycle", "worst temp")
	for i, l := range s.Labels {
		t.add(l,
			fmt.Sprintf("%.2f", s.BIPS[i]),
			fmt.Sprintf("%.1f%%", s.Duty[i]*100),
			fmt.Sprintf("%.2f °C", s.Worst[i]))
	}
	return t.String()
}

func runSweep(o Options, knob string, spec core.PolicySpec,
	labels []string, mutate func(idx int, cfg *sim.Config)) (*SweepResult, error) {
	variants := make([]sim.Config, len(labels))
	for i := range variants {
		variants[i] = o.simConfig()
		mutate(i, &variants[i])
	}
	runs, err := runGrid(o, grid{variants: variants, policies: []core.PolicySpec{spec}})
	if err != nil {
		return nil, err
	}
	out := &SweepResult{Knob: knob, Policy: spec, Labels: labels}
	for v := range variants {
		sum := metrics.Summarize(spec.String(), runs[v][0])
		out.BIPS = append(out.BIPS, sum.MeanBIPS)
		out.Duty = append(out.Duty, sum.MeanDuty)
		out.Worst = append(out.Worst, sum.WorstTemp)
	}
	return out, nil
}

// RunStallAblation sweeps the stop-go stall interval. The paper chose
// 30 ms to match millisecond thermal time constants; the sweep shows
// the cost of both shorter (thrashing trips) and longer (wasted idle)
// intervals.
func RunStallAblation(o Options) (*SweepResult, error) {
	stalls := []units.Seconds{10e-3, 30e-3, 60e-3}
	return runSweep(o, "stall interval", core.Baseline,
		[]string{"10 ms", "30 ms (paper)", "60 ms"},
		func(i int, cfg *sim.Config) { cfg.Policy.StallSeconds = stalls[i] })
}

// RunSetpointAblation sweeps the PI setpoint margin below the 84.2 °C
// threshold: small margins risk emergencies, large ones waste headroom.
func RunSetpointAblation(o Options) (*SweepResult, error) {
	margins := []units.Celsius{1.0, 2.4, 5.0}
	spec := core.PolicySpec{Mechanism: core.DVFS, Scope: core.Distributed}
	return runSweep(o, "setpoint margin", spec,
		[]string{"1.0 °C", "2.4 °C (paper)", "5.0 °C"},
		func(i int, cfg *sim.Config) { cfg.Policy.SetpointMarginC = margins[i] })
}

// RunEpochAblation sweeps the OS migration epoch around the paper's
// 10 ms timer-interrupt spacing.
func RunEpochAblation(o Options) (*SweepResult, error) {
	epochs := []units.Seconds{2e-3, 10e-3, 50e-3}
	spec := core.PolicySpec{Mechanism: core.StopGo, Scope: core.Distributed, Migration: core.CounterMigration}
	return runSweep(o, "migration epoch", spec,
		[]string{"2 ms", "10 ms (paper)", "50 ms"},
		func(i int, cfg *sim.Config) { cfg.MigrationEpoch = epochs[i] })
}

// PIDAblationResult quantifies the paper's §4.1 remark that the
// derivative term adds little.
type PIDAblationResult struct {
	Kds      []float64
	PI, PIDs []control.ThermalControlQuality
}

// RunPIDAblation compares PI against PIDs of increasing derivative gain
// on the canonical hotspot testbench.
func RunPIDAblation() (*PIDAblationResult, error) {
	out := &PIDAblationResult{Kds: []float64{1e-6, 1e-5, 1e-4}}
	for _, kd := range out.Kds {
		pi, pid := control.ComparePIvsPID(kd, 81.8, 84.2)
		out.PI = append(out.PI, pi)
		out.PIDs = append(out.PIDs, pid)
	}
	return out, nil
}

// Render implements Result.
func (p *PIDAblationResult) Render() string {
	t := newTable("Ablation (§4.1): derivative term benefit on the hotspot testbench",
		"controller", "peak °C", "settle", "mean |err| °C")
	q := p.PI[0]
	t.add("PI (paper)", fmt.Sprintf("%.2f", q.PeakTempC), fmtSettle(q.SettleMS), fmt.Sprintf("%.3f", q.MeanAbsErrC))
	for i, kd := range p.Kds {
		q := p.PIDs[i]
		t.add(fmt.Sprintf("PID kd=%g", kd), fmt.Sprintf("%.2f", q.PeakTempC),
			fmtSettle(q.SettleMS), fmt.Sprintf("%.3f", q.MeanAbsErrC))
	}
	return t.String() + "paper §4.1: \"the derivative term has little benefit for this type of thermal control\"\n"
}

func fmtSettle(ms float64) string {
	if math.IsInf(ms, 1) {
		return "never"
	}
	return fmt.Sprintf("%.0f ms", ms)
}

// -------------------------------------------------------- multiproc

// MultiprocResult exercises the §6 observation that real systems run
// more processes than cores: six processes time-share the four cores
// under round-robin fairness while the DTM policies operate normally.
type MultiprocResult struct {
	Specs       []core.PolicySpec
	BIPS        []units.BIPS
	Duty        []units.ScaleFactor
	Preemptions []int
	Migrations  []int
	FairnessMin []float64 // smallest process share of the largest
	Worst       []units.Celsius
}

// RunMultiproc evaluates DTM policies under time-shared
// multiprogramming.
func RunMultiproc(o Options) (*MultiprocResult, error) {
	benchmarks := []string{"gzip", "twolf", "ammp", "lucas", "mcf", "sixtrack"}
	specs := []core.PolicySpec{
		core.Baseline,
		{Mechanism: core.DVFS, Scope: core.Distributed},
		{Mechanism: core.DVFS, Scope: core.Distributed, Migration: core.SensorMigration},
	}
	out := &MultiprocResult{Specs: specs}
	for _, spec := range specs {
		cfg := o.simConfig()
		r, err := sim.NewTimeshared(cfg, "sixmix", benchmarks, spec, 0)
		if err != nil {
			return nil, err
		}
		m, err := r.Run()
		if err != nil {
			return nil, err
		}
		var min, max float64 = math.Inf(1), 0
		for _, p := range r.Scheduler().Processes() {
			cy := p.Lifetime.AdjCycles
			if cy < min {
				min = cy
			}
			if cy > max {
				max = cy
			}
		}
		fair := 0.0
		if max > 0 {
			fair = min / max
		}
		out.BIPS = append(out.BIPS, m.BIPS())
		out.Duty = append(out.Duty, m.DutyCycle())
		out.Preemptions = append(out.Preemptions, m.Preemptions)
		out.Migrations = append(out.Migrations, m.Migrations)
		out.FairnessMin = append(out.FairnessMin, fair)
		out.Worst = append(out.Worst, m.MaxTempC)
	}
	return out, nil
}

// Render implements Result.
func (m *MultiprocResult) Render() string {
	t := newTable("Extension (§6): six processes time-sharing four cores",
		"policy", "BIPS", "duty", "preemptions", "migrations", "fairness (min/max share)", "worst temp")
	for i, spec := range m.Specs {
		t.add(spec.String(),
			fmt.Sprintf("%.2f", m.BIPS[i]),
			fmt.Sprintf("%.1f%%", m.Duty[i]*100),
			fmt.Sprintf("%d", m.Preemptions[i]),
			fmt.Sprintf("%d", m.Migrations[i]),
			fmt.Sprintf("%.2f", m.FairnessMin[i]),
			fmt.Sprintf("%.2f °C", m.Worst[i]))
	}
	return t.String() + "The round-robin fairness rotation and the thermal policies compose:\nno starvation, no emergencies, and DVFS keeps its advantage.\n"
}
