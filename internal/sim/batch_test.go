package sim

import (
	"testing"

	"multitherm/internal/core"
	"multitherm/internal/metrics"
	"multitherm/internal/units"
)

// batchLaneSpec describes one lane of a test batch.
type batchLaneSpec struct {
	mix     string
	spec    core.PolicySpec
	simTime units.Seconds
	caps    []units.ScaleFactor // CoreMaxScale, nil = homogeneous
}

func newLaneRunner(t *testing.T, ls batchLaneSpec) *Runner {
	t.Helper()
	cfg := quickCfg()
	if ls.simTime > 0 {
		cfg.SimTime = ls.simTime
	}
	cfg.CoreMaxScale = ls.caps
	r, err := New(cfg, mustMix(t, ls.mix), ls.spec)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// requireRunsEqual compares every metrics field that the simulation
// produces, bit-exactly — the batched path must not perturb a single
// rounding anywhere.
func requireRunsEqual(t *testing.T, lane int, got, want *metrics.Run) {
	t.Helper()
	if got.Instructions != want.Instructions {
		t.Errorf("lane %d: Instructions %v != %v", lane, got.Instructions, want.Instructions)
	}
	for c := range want.PerCoreInstr {
		if got.PerCoreInstr[c] != want.PerCoreInstr[c] {
			t.Errorf("lane %d: PerCoreInstr[%d] %v != %v", lane, c, got.PerCoreInstr[c], want.PerCoreInstr[c])
		}
	}
	if got.WorkSeconds != want.WorkSeconds {
		t.Errorf("lane %d: WorkSeconds %v != %v", lane, got.WorkSeconds, want.WorkSeconds)
	}
	if got.PenaltySeconds != want.PenaltySeconds {
		t.Errorf("lane %d: PenaltySeconds %v != %v", lane, got.PenaltySeconds, want.PenaltySeconds)
	}
	if got.StallSeconds != want.StallSeconds {
		t.Errorf("lane %d: StallSeconds %v != %v", lane, got.StallSeconds, want.StallSeconds)
	}
	if got.MaxTempC != want.MaxTempC {
		t.Errorf("lane %d: MaxTempC %v != %v", lane, got.MaxTempC, want.MaxTempC)
	}
	if got.EmergencySeconds != want.EmergencySeconds {
		t.Errorf("lane %d: EmergencySeconds %v != %v", lane, got.EmergencySeconds, want.EmergencySeconds)
	}
	if got.Migrations != want.Migrations {
		t.Errorf("lane %d: Migrations %v != %v", lane, got.Migrations, want.Migrations)
	}
	if got.Preemptions != want.Preemptions {
		t.Errorf("lane %d: Preemptions %v != %v", lane, got.Preemptions, want.Preemptions)
	}
	if got.Transitions != want.Transitions {
		t.Errorf("lane %d: Transitions %v != %v", lane, got.Transitions, want.Transitions)
	}
	if got.SimTime != want.SimTime {
		t.Errorf("lane %d: SimTime %v != %v", lane, got.SimTime, want.SimTime)
	}
}

// requireBatchMatchesSequential runs the lanes one by one through
// Runner.Run, then again as one BatchRunner, and requires bit-identical
// metrics lane by lane.
func requireBatchMatchesSequential(t *testing.T, lanes []batchLaneSpec) {
	t.Helper()
	want := make([]*metrics.Run, len(lanes))
	for i, ls := range lanes {
		m, err := newLaneRunner(t, ls).Run()
		if err != nil {
			t.Fatal(err)
		}
		want[i] = m
	}
	runners := make([]*Runner, len(lanes))
	for i, ls := range lanes {
		runners[i] = newLaneRunner(t, ls)
	}
	br, err := NewBatchRunner(runners)
	if err != nil {
		t.Fatal(err)
	}
	got, err := br.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(lanes) {
		t.Fatalf("batch of %d lanes returned %d results", len(lanes), len(got))
	}
	for i := range lanes {
		requireRunsEqual(t, i, got[i], want[i])
	}
}

// TestBatchRunnerMatchesSequential is the end-to-end determinism guard
// of the batched sweep: a mixed 8-lane batch — different mechanisms,
// scopes, migration policies, workloads, and one heterogeneous-cap
// lane — must produce metrics bit-identical to eight sequential
// Runner.Run calls.
func TestBatchRunnerMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("eight full simulations twice over")
	}
	requireBatchMatchesSequential(t, []batchLaneSpec{
		{mix: "workload1", spec: core.Baseline},
		{mix: "workload1", spec: core.PolicySpec{Mechanism: core.DVFS, Scope: core.Distributed}},
		{mix: "workload7", spec: core.PolicySpec{Mechanism: core.DVFS, Scope: core.Global}},
		{mix: "workload7", spec: core.PolicySpec{Mechanism: core.StopGo, Scope: core.Distributed}},
		{mix: "workload8", spec: core.PolicySpec{Mechanism: core.DVFS, Scope: core.Distributed, Migration: core.CounterMigration}},
		{mix: "workload8", spec: core.PolicySpec{Mechanism: core.StopGo, Scope: core.Global, Migration: core.SensorMigration}},
		{mix: "workload2", spec: core.PolicySpec{Mechanism: core.DVFS, Scope: core.Distributed}, caps: []units.ScaleFactor{1, 1, 0.7, 0.7}},
		{mix: "workload3", spec: core.PolicySpec{Mechanism: core.StopGo, Scope: core.Distributed}},
	})
}

// TestBatchRunnerRagged runs a 5-lane batch (not a multiple of the
// SIMD pair width) whose lanes finish at different simulated lengths;
// early-finishing lanes must seal their metrics while the rest keep
// stepping, still bit-identical to sequential runs.
func TestBatchRunnerRagged(t *testing.T) {
	requireBatchMatchesSequential(t, []batchLaneSpec{
		{mix: "workload1", spec: core.PolicySpec{Mechanism: core.DVFS, Scope: core.Distributed}, simTime: 0.02},
		{mix: "workload7", spec: core.PolicySpec{Mechanism: core.StopGo, Scope: core.Global}, simTime: 0.05},
		{mix: "workload8", spec: core.Baseline, simTime: 0.03},
		{mix: "workload2", spec: core.PolicySpec{Mechanism: core.DVFS, Scope: core.Global}, simTime: 0.05},
		{mix: "workload3", spec: core.PolicySpec{Mechanism: core.DVFS, Scope: core.Distributed}, simTime: 0.01},
	})
}

// TestBatchRunnerOneLaneMatchesRun checks that a one-runner batch,
// which takes Runner.Run's path, returns Runner.Run's metrics bit for
// bit — for a capped DVFS lane and for a migrating stop-go lane.
func TestBatchRunnerOneLaneMatchesRun(t *testing.T) {
	requireBatchMatchesSequential(t, []batchLaneSpec{
		{mix: "workload2", spec: core.PolicySpec{Mechanism: core.DVFS, Scope: core.Distributed}, caps: []units.ScaleFactor{1, 1, 0.7, 0.7}},
	})
	requireBatchMatchesSequential(t, []batchLaneSpec{
		{mix: "workload8", spec: core.PolicySpec{Mechanism: core.StopGo, Scope: core.Global, Migration: core.SensorMigration}, simTime: 0.03},
	})
}

// TestBatchRunnerRejectsMismatch checks the adoption-time guards.
func TestBatchRunnerRejectsMismatch(t *testing.T) {
	if _, err := NewBatchRunner(nil); err == nil {
		t.Error("empty batch accepted")
	}

	a := newLaneRunner(t, batchLaneSpec{mix: "workload1", spec: core.Baseline})

	cfg := quickCfg()
	cfg.Policy.SamplePeriod *= 2
	b, err := New(cfg, mustMix(t, "workload1"), core.Baseline)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewBatchRunner([]*Runner{a, b}); err == nil {
		t.Error("mismatched sample periods accepted")
	}

	cfg = quickCfg()
	cfg.Thermal.Ambient += 5 // different template
	c, err := New(cfg, mustMix(t, "workload1"), core.Baseline)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewBatchRunner([]*Runner{a, c}); err == nil {
		t.Error("mismatched thermal templates accepted")
	}
}

func TestDefaultBatchSizeSane(t *testing.T) {
	if n := DefaultBatchSize(); n < 4 || n > 16 {
		t.Fatalf("DefaultBatchSize() = %d, want within [4,16]", n)
	}
}
