package experiments

import (
	"fmt"
	"math"
	"strings"

	"multitherm/internal/control"
	"multitherm/internal/core"
	"multitherm/internal/uarch"
	"multitherm/internal/workload"
)

// StaticResult wraps artifacts that are structural rather than
// simulated.
type StaticResult struct {
	text string
}

// Render implements Result.
func (s *StaticResult) Render() string { return s.text }

// Table2 reproduces the thermal control taxonomy (paper Table 2).
func Table2() *StaticResult {
	t := newTable("Table 2: thermal control taxonomy (12 policy combinations)",
		"scope", "no migration", "counter-based migration", "sensor-based migration")
	cells := map[core.Scope]map[core.MigrationKind][]string{}
	for _, spec := range core.Taxonomy() {
		if cells[spec.Scope] == nil {
			cells[spec.Scope] = map[core.MigrationKind][]string{}
		}
		cells[spec.Scope][spec.Migration] = append(cells[spec.Scope][spec.Migration], spec.Mechanism.String())
	}
	for _, scope := range []core.Scope{core.Global, core.Distributed} {
		t.add(scope.String(),
			strings.Join(cells[scope][core.NoMigration], " / "),
			strings.Join(cells[scope][core.CounterMigration], " / "),
			strings.Join(cells[scope][core.SensorMigration], " / "))
	}
	return &StaticResult{text: t.String()}
}

// Table3 reproduces the modeled CPU design parameters (paper Table 3).
func Table3() *StaticResult {
	c := uarch.DefaultConfig()
	p := core.DefaultParams()
	t := newTable("Table 3: design parameters for the modeled CPU", "parameter", "value")
	t.add("Process technology", "90 nm")
	t.add("Supply voltage", "1.0 V")
	t.add("Clock rate", fmt.Sprintf("%.1f GHz", c.ClockHz/1e9))
	t.add("Organization", "4-core + shared L2 cache")
	t.add("Reservation stations", fmt.Sprintf("mem/int queue (2x%d), fp queue (2x%d)", c.MemIntQueue/2, c.FPQueue/2))
	t.add("Functional units", fmt.Sprintf("%d FXU, %d FPU, %d LSU, %d BXU", c.NumFXU, c.NumFPU, c.NumLSU, c.NumBXU))
	t.add("Physical registers", fmt.Sprintf("%d GPR, %d FPR, %d SPR", c.GPR, c.FPR, c.SPR))
	t.add("L1 dcache latency", fmt.Sprintf("%d cycle", c.L1DLatency))
	t.add("L2 latency", fmt.Sprintf("%d cycles", c.L2Latency))
	t.add("Main memory latency", fmt.Sprintf("%d cycles", c.MemLatency))
	t.add("DVFS transition penalty", fmt.Sprintf("%.0f µs", p.TransitionPenalty*1e6))
	t.add("Minimum freq scale", fmt.Sprintf("%.0f%% (%.0f MHz)", p.Limits.Min*100, float64(p.Limits.Min)*c.ClockHz/1e6))
	t.add("Minimum transition", fmt.Sprintf("%.0f%% of range", p.Limits.MinTransition/(p.Limits.Max-p.Limits.Min)*100))
	t.add("Migration penalty", "100 µs")
	return &StaticResult{text: t.String()}
}

// Table4 reproduces the workload mixes (paper Table 4).
func Table4() *StaticResult {
	t := newTable("Table 4: four-process workloads", "workload", "benchmarks", "mix")
	for _, m := range workload.Mixes {
		label := m.Label()
		open := strings.LastIndex(label, "(")
		t.add(m.Name, strings.Join(m.Benchmarks[:], ", "), strings.Trim(label[open:], "()"))
	}
	return &StaticResult{text: t.String()}
}

// PIAnalysis reproduces the formal-control content of §4: the published
// discrete control law, and the stability analysis the paper performs
// with MATLAB (root locus / pole placement).
type PIAnalysis struct {
	B0, B1         float64 // reproduced discrete coefficients
	PaperB0        float64
	PaperB1        float64
	ContinuousOK   bool // closed-loop poles in left half plane
	DiscreteOK     bool // closed-loop poles inside unit circle
	RobustnessOK   bool // stability preserved at 0.1x and 10x gains
	SettlingTimeMS float64
}

// RunPIAnalysis performs the §4 control design study against a
// representative first-order hotspot plant.
func RunPIAnalysis() (*PIAnalysis, error) {
	out := &PIAnalysis{PaperB0: -0.0107, PaperB1: 0.003796}
	law := control.C2DPI(control.PaperKp, control.PaperKi, control.PaperSamplePeriod, control.ForwardEuler)
	out.B0, out.B1 = law.B0, law.B1

	// Representative hotspot plant: ~12 °C of authority over the local
	// temperature with a ~25 ms thermal time constant (the measured
	// register-file constants of the CMP4 model).
	const gain, tau = 12.0, 25e-3
	plant := control.FirstOrderPlant(gain, tau)
	loop := control.PI(control.PaperKp, control.PaperKi).Series(plant).Feedback()
	out.ContinuousOK = loop.IsStable()
	out.SettlingTimeMS = float64(loop.SettlingTime()) * 1e3

	pn, pd := control.DiscretizePlantZOH(gain, tau, control.PaperSamplePeriod)
	out.DiscreteOK = law.ClosedLoopStableZ(pn, pd)

	out.RobustnessOK = true
	for _, k := range []float64{0.1, 10} {
		l := control.PI(control.PaperKp*k, control.PaperKi*k).Series(plant).Feedback()
		if !l.IsStable() {
			out.RobustnessOK = false
		}
	}
	return out, nil
}

// Render implements Result.
func (p *PIAnalysis) Render() string {
	t := newTable("§4: PI controller design and stability", "quantity", "reproduced", "paper")
	t.add("u[n] coefficient on e[n]", fmt.Sprintf("%+.6f", p.B0), fmt.Sprintf("%+.6f", p.PaperB0))
	t.add("u[n] coefficient on e[n-1]", fmt.Sprintf("%+.6f", p.B1), fmt.Sprintf("%+.6f", p.PaperB1))
	t.add("continuous closed loop stable", yesNo(p.ContinuousOK), "yes (root locus)")
	t.add("discrete closed loop stable", yesNo(p.DiscreteOK), "yes")
	t.add("stable at 0.1x..10x gains", yesNo(p.RobustnessOK), "yes (constants can deviate)")
	t.add("2% settling time", fmt.Sprintf("%.1f ms", p.SettlingTimeMS), "-")
	return t.String()
}

func yesNo(b bool) string {
	if b {
		return "yes"
	}
	return "NO"
}

// CoefficientError returns the worst relative deviation of the
// reproduced discrete coefficients from the published ones.
func (p *PIAnalysis) CoefficientError() float64 {
	e0 := math.Abs(p.B0-p.PaperB0) / math.Abs(p.PaperB0)
	e1 := math.Abs(p.B1-p.PaperB1) / math.Abs(p.PaperB1)
	return math.Max(e0, e1)
}
