// Package metrics implements the paper's evaluation metrics (§3.5):
// raw instruction throughput (BIPS) and the adjusted duty cycle — the
// ratio of work done to the work possible at full speed, with DVFS
// contributions weighted by the dynamic frequency and overheads (PLL
// retargeting, migration context switches) counted as non-work.
package metrics

import (
	"fmt"
	"math"

	"multitherm/internal/units"
)

// Run accumulates measurements over one simulation.
type Run struct {
	Policy   string
	Workload string

	SimTime units.Seconds // simulated time
	NCores  int

	Instructions float64 // total retired across cores
	PerCoreInstr []float64

	// WorkSeconds is Σ over cores and ticks of effectiveScale·dt: the
	// frequency-weighted productive time.
	WorkSeconds units.Seconds
	// PenaltySeconds is time lost to DVFS transitions and migration
	// context switches.
	PenaltySeconds units.Seconds
	// StallSeconds is time cores spent frozen by stop-go.
	StallSeconds units.Seconds

	MaxTempC units.Celsius
	// EmergencySeconds is time during which any die block exceeded the
	// thermal threshold.
	EmergencySeconds units.Seconds

	Migrations  int
	Preemptions int // fairness timeslice rotations (time-shared mode)
	Transitions int // DVFS retarget events
}

// NewRun initializes a run record.
func NewRun(policy, wl string, nCores int) *Run {
	return &Run{
		Policy: policy, Workload: wl, NCores: nCores,
		PerCoreInstr: make([]float64, nCores),
		MaxTempC:     units.Celsius(math.Inf(-1)),
	}
}

// BIPS returns billions of instructions per second across the chip.
func (r *Run) BIPS() units.BIPS {
	if r.SimTime <= 0 {
		return 0
	}
	return units.BIPS(r.Instructions / float64(r.SimTime) / 1e9)
}

// DutyCycle returns the adjusted duty cycle in [0,1]: achieved
// frequency-weighted work over the total possible core-seconds.
func (r *Run) DutyCycle() units.ScaleFactor {
	total := float64(r.SimTime) * float64(r.NCores)
	if total <= 0 {
		return 0
	}
	return units.ScaleFactor(float64(r.WorkSeconds) / total)
}

// Validate sanity-checks the accumulated record.
func (r *Run) Validate() error {
	if r.SimTime <= 0 {
		return fmt.Errorf("metrics: run %s/%s has non-positive sim time", r.Policy, r.Workload)
	}
	if d := r.DutyCycle(); d < 0 || d > 1+1e-9 {
		return fmt.Errorf("metrics: duty cycle %v outside [0,1]", d)
	}
	if r.Instructions < 0 {
		return fmt.Errorf("metrics: negative instruction count")
	}
	return nil
}

// Summary aggregates several runs of the same policy over different
// workloads, as the paper's Tables 5–8 do.
type Summary struct {
	Policy    string
	Runs      []*Run
	MeanBIPS  units.BIPS
	MeanDuty  units.ScaleFactor
	WorstTemp units.Celsius
	TotalEmer units.Seconds
}

// Summarize computes cross-workload averages.
func Summarize(policy string, runs []*Run) Summary {
	s := Summary{Policy: policy, Runs: runs, WorstTemp: units.Celsius(math.Inf(-1))}
	if len(runs) == 0 {
		return s
	}
	for _, r := range runs {
		s.MeanBIPS += r.BIPS()
		s.MeanDuty += r.DutyCycle()
		if r.MaxTempC > s.WorstTemp {
			s.WorstTemp = r.MaxTempC
		}
		s.TotalEmer += r.EmergencySeconds
	}
	s.MeanBIPS /= units.BIPS(len(runs))
	s.MeanDuty /= units.ScaleFactor(len(runs))
	return s
}

// Relative returns this summary's mean throughput normalized to a
// baseline summary (the paper's "relative throughput" column). The
// result is a dimensionless BIPS/BIPS ratio, deliberately not a units
// type.
func (s Summary) Relative(baseline Summary) float64 {
	if baseline.MeanBIPS == 0 {
		return 0
	}
	return float64(s.MeanBIPS / baseline.MeanBIPS)
}

// PerWorkloadRelative returns, per workload, this policy's BIPS over
// the baseline's for the same workload (Figure 3's bars). Both run
// slices must be ordered identically.
func PerWorkloadRelative(policy, baseline []*Run) ([]float64, error) {
	if len(policy) != len(baseline) {
		return nil, fmt.Errorf("metrics: run count mismatch %d vs %d", len(policy), len(baseline))
	}
	out := make([]float64, len(policy))
	for i := range policy {
		if policy[i].Workload != baseline[i].Workload {
			return nil, fmt.Errorf("metrics: workload order mismatch at %d: %s vs %s",
				i, policy[i].Workload, baseline[i].Workload)
		}
		if b := baseline[i].BIPS(); b > 0 {
			out[i] = float64(policy[i].BIPS() / b)
		}
	}
	return out, nil
}
