package experiments

import (
	"fmt"
	"math"
	"slices"

	"multitherm/internal/core"
	"multitherm/internal/metrics"
	"multitherm/internal/sim"
	"multitherm/internal/units"
)

// paperRefs holds the paper's published figures per taxonomy cell:
// the duty cycle (%) and relative throughput of Tables 5–7, and the
// rounded relative throughput Table 8 prints. Reports show them next to
// the reproduced values.
var paperRefs = map[core.PolicySpec]struct{ duty, rel, table8 float64 }{
	{Mechanism: core.StopGo, Scope: core.Global}:      {19.77, 0.62, 0.62},
	{Mechanism: core.StopGo, Scope: core.Distributed}: {32.57, 1.00, 1},
	{Mechanism: core.DVFS, Scope: core.Global}:        {66.49, 2.07, 2.1},
	{Mechanism: core.DVFS, Scope: core.Distributed}:   {81.02, 2.51, 2.5},

	{Mechanism: core.StopGo, Scope: core.Global, Migration: core.CounterMigration}:      {37.93, 1.18, 1.2},
	{Mechanism: core.StopGo, Scope: core.Distributed, Migration: core.CounterMigration}: {65.12, 2.02, 2},
	{Mechanism: core.DVFS, Scope: core.Global, Migration: core.CounterMigration}:        {70.05, 2.18, 2.2},
	{Mechanism: core.DVFS, Scope: core.Distributed, Migration: core.CounterMigration}:   {82.42, 2.57, 2.6},

	{Mechanism: core.StopGo, Scope: core.Global, Migration: core.SensorMigration}:      {38.64, 1.20, 1.2},
	{Mechanism: core.StopGo, Scope: core.Distributed, Migration: core.SensorMigration}: {66.61, 2.05, 2.1},
	{Mechanism: core.DVFS, Scope: core.Global, Migration: core.SensorMigration}:        {68.37, 2.13, 2.1},
	{Mechanism: core.DVFS, Scope: core.Distributed, Migration: core.SensorMigration}:   {82.64, 2.59, 2.6},
}

// PolicyStudy holds the measured results of a set of policies over the
// workload suite, all normalized against the distributed stop-go
// baseline.
type PolicyStudy struct {
	Specs    []core.PolicySpec
	Runs     map[core.PolicySpec][]*metrics.Run
	Summary  map[core.PolicySpec]metrics.Summary
	Baseline metrics.Summary
}

// runStudy executes the given policy set (always including the
// baseline) over the workload suite as one grid — a study is the unit
// with the most exposed parallelism (Table 8: 12 specs × 12 workloads
// = 144 independent cells sharing one thermal template) — and every
// result lands in its (spec, workload) slot, so the assembled study is
// identical at any parallelism and batch width.
func runStudy(o Options, specs []core.PolicySpec) (*PolicyStudy, error) {
	all := specs
	if !slices.Contains(specs, core.Baseline) {
		all = append([]core.PolicySpec{core.Baseline}, specs...)
	}
	runs, err := runGrid(o, grid{policies: all})
	if err != nil {
		return nil, err
	}
	s := &PolicyStudy{
		Specs:   specs,
		Runs:    map[core.PolicySpec][]*metrics.Run{},
		Summary: map[core.PolicySpec]metrics.Summary{},
	}
	for p, spec := range all {
		s.Runs[spec] = runs[0][p]
		s.Summary[spec] = metrics.Summarize(spec.String(), runs[0][p])
	}
	s.Baseline = s.Summary[core.Baseline]
	return s, nil
}

// Relative returns the policy's mean throughput over the baseline's.
func (s *PolicyStudy) Relative(spec core.PolicySpec) float64 {
	return s.Summary[spec].Relative(s.Baseline)
}

// Emergencies returns total time any block spent above the threshold,
// across all runs of all policies (the paper's designs avoid all
// thermal emergencies).
func (s *PolicyStudy) Emergencies() units.Seconds {
	var total units.Seconds
	for _, spec := range s.Specs {
		for _, r := range s.Runs[spec] {
			total += r.EmergencySeconds
		}
	}
	return total
}

// renderSummary prints one row per policy next to the paper's
// published duty cycle and relative throughput. A non-nil speedup adds
// a column with each policy's gain over its non-migrating counterpart.
func (s *PolicyStudy) renderSummary(title string, speedup map[core.PolicySpec]float64) string {
	headers := []string{"policy", "BIPS", "duty cycle", "rel. throughput"}
	if speedup != nil {
		headers = append(headers, "speedup vs non-mig.")
	}
	t := newTable(title, append(headers, "paper duty", "paper rel.")...)
	for _, spec := range s.Specs {
		sum := s.Summary[spec]
		row := []string{spec.String(),
			fmt.Sprintf("%.2f", sum.MeanBIPS),
			fmt.Sprintf("%.1f%%", sum.MeanDuty*100),
			fmt.Sprintf("%.2f", s.Relative(spec))}
		if speedup != nil {
			row = append(row, fmt.Sprintf("%.2f", speedup[spec]))
		}
		pd, pr := "-", "-"
		if ref, ok := paperRefs[spec]; ok {
			pd, pr = fmt.Sprintf("%.1f%%", ref.duty), fmt.Sprintf("%.2f", ref.rel)
		}
		t.add(append(row, pd, pr)...)
	}
	return t.String()
}

// nonMigrationSpecs are the four base policy cells.
func nonMigrationSpecs() []core.PolicySpec {
	return []core.PolicySpec{
		{Mechanism: core.StopGo, Scope: core.Global},
		{Mechanism: core.StopGo, Scope: core.Distributed},
		{Mechanism: core.DVFS, Scope: core.Global},
		{Mechanism: core.DVFS, Scope: core.Distributed},
	}
}

func withMigration(kind core.MigrationKind) []core.PolicySpec {
	out := nonMigrationSpecs()
	for i := range out {
		out[i].Migration = kind
	}
	return out
}

// ---------------------------------------------------------------- fig3

// Fig3Result is the per-workload normalized-throughput study of the
// three non-baseline, non-migration policies (paper Figure 3).
type Fig3Result struct {
	*PolicyStudy
	Workloads []string
	// Series maps policy → per-workload throughput relative to the
	// distributed stop-go baseline on the same workload.
	Series map[core.PolicySpec][]float64
}

// RunFig3 reproduces Figure 3.
func RunFig3(o Options) (*Fig3Result, error) {
	study, err := runStudy(o, nonMigrationSpecs())
	if err != nil {
		return nil, err
	}
	out := &Fig3Result{PolicyStudy: study, Series: map[core.PolicySpec][]float64{}}
	for _, m := range o.workloads() {
		out.Workloads = append(out.Workloads, m.Label())
	}
	base := study.Runs[core.Baseline]
	for _, spec := range study.Specs {
		if spec == core.Baseline {
			continue
		}
		rel, err := metrics.PerWorkloadRelative(study.Runs[spec], base)
		if err != nil {
			return nil, err
		}
		out.Series[spec] = rel
	}
	return out, nil
}

// Render implements Result.
func (f *Fig3Result) Render() string {
	t := newTable("Figure 3: per-workload instruction throughput relative to dist. stop-go",
		"workload", "Global stop-go", "Global DVFS", "Dist. DVFS")
	gs := core.PolicySpec{Mechanism: core.StopGo, Scope: core.Global}
	gd := core.PolicySpec{Mechanism: core.DVFS, Scope: core.Global}
	dd := core.PolicySpec{Mechanism: core.DVFS, Scope: core.Distributed}
	for i, w := range f.Workloads {
		t.add(w,
			fmt.Sprintf("%.2f", f.Series[gs][i]),
			fmt.Sprintf("%.2f", f.Series[gd][i]),
			fmt.Sprintf("%.2f", f.Series[dd][i]))
	}
	return t.String()
}

// -------------------------------------------------------------- table5

// Table5Result is the average-throughput study of the four base
// policies (paper Table 5).
type Table5Result struct{ *PolicyStudy }

// RunTable5 reproduces Table 5.
func RunTable5(o Options) (*Table5Result, error) {
	study, err := runStudy(o, nonMigrationSpecs())
	if err != nil {
		return nil, err
	}
	return &Table5Result{study}, nil
}

// Render implements Result.
func (t *Table5Result) Render() string {
	return t.renderSummary("Table 5: average throughput and duty cycle, non-migration policies", nil)
}

// ---------------------------------------------------------- tables 6, 7

// MigrationTableResult covers Tables 6 and 7: the four base policies
// with one migration mechanism layered on, including the speedup over
// the corresponding non-migration policy.
type MigrationTableResult struct {
	*PolicyStudy
	Kind core.MigrationKind
	// SpeedupOverBase maps each migrating policy to its throughput gain
	// over the same policy without migration.
	SpeedupOverBase map[core.PolicySpec]float64
}

func runMigrationTable(o Options, kind core.MigrationKind) (*MigrationTableResult, error) {
	specs := append(nonMigrationSpecs(), withMigration(kind)...)
	study, err := runStudy(o, specs)
	if err != nil {
		return nil, err
	}
	out := &MigrationTableResult{PolicyStudy: study, Kind: kind,
		SpeedupOverBase: map[core.PolicySpec]float64{}}
	for _, spec := range withMigration(kind) {
		plain := spec
		plain.Migration = core.NoMigration
		if b := study.Summary[plain].MeanBIPS; b > 0 {
			out.SpeedupOverBase[spec] = float64(study.Summary[spec].MeanBIPS / b)
		}
	}
	// Report only migration rows.
	out.Specs = withMigration(kind)
	return out, nil
}

// RunTable6 reproduces Table 6 (counter-based migration).
func RunTable6(o Options) (*MigrationTableResult, error) {
	return runMigrationTable(o, core.CounterMigration)
}

// RunTable7 reproduces Table 7 (sensor-based migration).
func RunTable7(o Options) (*MigrationTableResult, error) {
	return runMigrationTable(o, core.SensorMigration)
}

// Render implements Result.
func (t *MigrationTableResult) Render() string {
	n := "6"
	if t.Kind == core.SensorMigration {
		n = "7"
	}
	return t.renderSummary(fmt.Sprintf("Table %s: %s results", n, t.Kind), t.SpeedupOverBase)
}

// ---------------------------------------------------------------- fig7

// Fig7Result is the per-workload gain/loss of the two migration
// mechanisms layered on distributed DVFS (paper Figure 7).
type Fig7Result struct {
	Workloads []string
	Counter   []float64 // percentage delta vs non-migration dist. DVFS
	Sensor    []float64
}

// RunFig7 reproduces Figure 7.
func RunFig7(o Options) (*Fig7Result, error) {
	dd := core.PolicySpec{Mechanism: core.DVFS, Scope: core.Distributed}
	ddC := dd
	ddC.Migration = core.CounterMigration
	ddS := dd
	ddS.Migration = core.SensorMigration
	runs, err := runGrid(o, grid{policies: []core.PolicySpec{dd, ddC, ddS}})
	if err != nil {
		return nil, err
	}
	base, counter, sens := runs[0][0], runs[0][1], runs[0][2]
	relC, err := metrics.PerWorkloadRelative(counter, base)
	if err != nil {
		return nil, err
	}
	relS, err := metrics.PerWorkloadRelative(sens, base)
	if err != nil {
		return nil, err
	}
	out := &Fig7Result{}
	for i, m := range o.workloads() {
		out.Workloads = append(out.Workloads, m.Label())
		out.Counter = append(out.Counter, (relC[i]-1)*100)
		out.Sensor = append(out.Sensor, (relS[i]-1)*100)
	}
	return out, nil
}

// Render implements Result.
func (f *Fig7Result) Render() string {
	t := newTable("Figure 7: performance delta of migration vs non-migration under dist. DVFS",
		"workload", "counter-based", "sensor-based")
	for i, w := range f.Workloads {
		t.add(w,
			fmt.Sprintf("%+.1f%%", f.Counter[i]),
			fmt.Sprintf("%+.1f%%", f.Sensor[i]))
	}
	return t.String()
}

// -------------------------------------------------------------- table8

// Table8Result is the full 12-cell policy matrix (paper Table 8).
type Table8Result struct{ *PolicyStudy }

// RunTable8 reproduces Table 8.
func RunTable8(o Options) (*Table8Result, error) {
	study, err := runStudy(o, core.Taxonomy())
	if err != nil {
		return nil, err
	}
	return &Table8Result{study}, nil
}

// Render implements Result.
func (t *Table8Result) Render() string {
	tab := newTable("Table 8: relative instruction throughput of all 12 policy combinations",
		"policy", "rel. throughput", "paper")
	for _, spec := range t.Specs {
		rel, paper := fmt.Sprintf("%.2f", t.Relative(spec)), fmt.Sprintf("%g", paperRefs[spec].table8)
		if spec == core.Baseline {
			rel, paper = "baseline", "baseline"
		}
		tab.add(spec.String(), rel, paper)
	}
	return tab.String()
}

// --------------------------------------------------------- sensitivity

// SensitivityResult is the §5.3 threshold study: raising the limit to
// 100 °C raises all duty cycles by roughly 10–15 points while
// preserving the relative ordering of policies.
type SensitivityResult struct {
	Specs     []core.PolicySpec
	DutyAt84  map[core.PolicySpec]units.ScaleFactor
	DutyAt100 map[core.PolicySpec]units.ScaleFactor
}

// RunSensitivity reproduces the paper's 100 °C observation.
func RunSensitivity(o Options) (*SensitivityResult, error) {
	specs := nonMigrationSpecs()
	out := &SensitivityResult{
		Specs:     specs,
		DutyAt84:  map[core.PolicySpec]units.ScaleFactor{},
		DutyAt100: map[core.PolicySpec]units.ScaleFactor{},
	}
	hot := o.simConfig()
	hot.Policy.ThresholdC = 100
	runs, err := runGrid(o, grid{variants: []sim.Config{o.simConfig(), hot}, policies: specs})
	if err != nil {
		return nil, err
	}
	for p, spec := range specs {
		out.DutyAt84[spec] = metrics.Summarize(spec.String(), runs[0][p]).MeanDuty
		out.DutyAt100[spec] = metrics.Summarize(spec.String(), runs[1][p]).MeanDuty
	}
	return out, nil
}

// Render implements Result.
func (s *SensitivityResult) Render() string {
	t := newTable("§5.3: duty cycles at an elevated 100 °C threshold",
		"policy", "duty @ 84.2 °C", "duty @ 100 °C", "delta")
	for _, spec := range s.Specs {
		d0, d1 := s.DutyAt84[spec], s.DutyAt100[spec]
		t.add(spec.String(),
			fmt.Sprintf("%.1f%%", d0*100),
			fmt.Sprintf("%.1f%%", d1*100),
			fmt.Sprintf("%+.1f pts", (d1-d0)*100))
	}
	return t.String() + "paper: thresholds of 100 °C raise duty cycles by 10 to 15 points;\nthe relative performance tradeoffs remain as presented.\n"
}

// OrderingPreserved reports whether the policy ordering is the same at
// both thresholds.
func (s *SensitivityResult) OrderingPreserved() bool {
	for i := 0; i < len(s.Specs); i++ {
		for j := i + 1; j < len(s.Specs); j++ {
			a, b := s.Specs[i], s.Specs[j]
			if (s.DutyAt84[a] < s.DutyAt84[b]) != (s.DutyAt100[a] < s.DutyAt100[b]) {
				return false
			}
		}
	}
	return true
}

// ---------------------------------------------------------- dutyvalid

// DutyValidityResult is the §5.3 metric validation: the achieved BIPS
// relative to an unconstrained run is predicted by the measured duty
// cycle.
type DutyValidityResult struct {
	Workloads []string
	Predicted []units.ScaleFactor // duty cycle of the constrained run
	Achieved  []units.ScaleFactor // throughput ratio constrained / unconstrained
}

// RunDutyValidity reproduces the §5.3 check using distributed DVFS.
func RunDutyValidity(o Options) (*DutyValidityResult, error) {
	dd := core.PolicySpec{Mechanism: core.DVFS, Scope: core.Distributed}
	runs, err := runGrid(o, grid{policies: []core.PolicySpec{dd, dtmOff}})
	if err != nil {
		return nil, err
	}
	out := &DutyValidityResult{}
	for i, mix := range o.workloads() {
		constrained, free := runs[0][0][i], runs[0][1][i]
		out.Workloads = append(out.Workloads, mix.Name)
		out.Predicted = append(out.Predicted, constrained.DutyCycle())
		out.Achieved = append(out.Achieved, units.ScaleFactor(float64(constrained.BIPS())/float64(free.BIPS())))
	}
	return out, nil
}

// Render implements Result.
func (d *DutyValidityResult) Render() string {
	t := newTable("§5.3: duty cycle as a predictor of throughput vs the unconstrained run",
		"workload", "duty cycle", "BIPS ratio", "error")
	for i := range d.Workloads {
		t.add(d.Workloads[i],
			fmt.Sprintf("%.1f%%", d.Predicted[i]*100),
			fmt.Sprintf("%.1f%%", d.Achieved[i]*100),
			fmt.Sprintf("%+.1f pts", (d.Achieved[i]-d.Predicted[i])*100))
	}
	return t.String()
}

// WorstError returns the largest |achieved − predicted| in points.
func (d *DutyValidityResult) WorstError() float64 {
	var worst float64
	for i := range d.Predicted {
		if e := math.Abs(float64(d.Achieved[i] - d.Predicted[i])); e > worst {
			worst = e
		}
	}
	return worst * 100
}
