package sim

import (
	"errors"
	"slices"
	"strings"
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
// Runner.Run (each a one-lane batch), then again as one BatchRunner,
// and requires bit-identical metrics lane by lane.
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

// TestRunBatchAnswersPerLane runs one batch in which two lanes fail
// beside healthy lanes of mixed policies, one of them migrating and one
// ragged. Lane 1's constructor fails; lane 3 rounds to zero control
// ticks and fails at finish, on the first pass. Every lane must answer
// as a lone Runner.Run of it would: the healthy lanes bit for bit, the
// constructor's error unchanged, the zero-tick lane with a lone run's
// error text. No constructor may run twice.
func TestRunBatchAnswersPerLane(t *testing.T) {
	lanes := []batchLaneSpec{
		{mix: "workload1", spec: core.PolicySpec{Mechanism: core.DVFS, Scope: core.Distributed}, simTime: 0.02},
		{}, // its constructor fails
		{mix: "workload8", spec: core.PolicySpec{Mechanism: core.DVFS, Scope: core.Distributed, Migration: core.CounterMigration}, simTime: 0.02},
		{mix: "workload7", spec: core.PolicySpec{Mechanism: core.StopGo, Scope: core.Global}, simTime: 1e-6},
		{mix: "workload2", spec: core.Baseline, simTime: 0.03},
		{mix: "workload3", spec: core.PolicySpec{Mechanism: core.StopGo, Scope: core.Distributed}, simTime: 0.02},
	}
	const buildFails, zeroTicks = 1, 3
	errBuild := errors.New("lane cannot build")

	want := make([]*metrics.Run, len(lanes))
	var wantZeroTicks error
	for l, ls := range lanes {
		if l == buildFails {
			continue
		}
		m, err := newLaneRunner(t, ls).Run()
		if l == zeroTicks {
			if err == nil {
				t.Fatal("a zero-tick run succeeded alone")
			}
			wantZeroTicks = err
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		want[l] = m
	}

	calls := make([]int, len(lanes))
	runs, errs := RunBatch(len(lanes), func(l int) (*Runner, error) {
		calls[l]++
		if l == buildFails {
			return nil, errBuild
		}
		return newLaneRunner(t, lanes[l]), nil
	})
	if len(runs) != len(lanes) || len(errs) != len(lanes) {
		t.Fatalf("%d lanes answered with %d runs and %d errors", len(lanes), len(runs), len(errs))
	}
	for l, n := range calls {
		if n != 1 {
			t.Errorf("lane %d: constructor called %d times, want 1", l, n)
		}
	}
	for l := range lanes {
		switch l {
		case buildFails:
			if errs[l] != errBuild {
				t.Errorf("lane %d: error %v, want the constructor's %v unchanged", l, errs[l], errBuild)
			}
		case zeroTicks:
			if errs[l] == nil || errs[l].Error() != wantZeroTicks.Error() {
				t.Errorf("lane %d: error %v, want a lone run's %q", l, errs[l], wantZeroTicks)
			}
		default:
			if errs[l] != nil || runs[l] == nil {
				t.Errorf("lane %d: run %v, error %v; want a run", l, runs[l], errs[l])
				continue
			}
			requireRunsEqual(t, l, runs[l], want[l])
			continue
		}
		if runs[l] != nil {
			t.Errorf("lane %d failed but returned a run", l)
		}
	}

	// Lanes that cannot share a propagator never run; each gets the
	// mismatch error.
	runs, errs = RunBatch(2, func(l int) (*Runner, error) {
		cfg := quickCfg()
		cfg.Policy.SamplePeriod *= units.Seconds(l + 1)
		return New(cfg, mustMix(t, "workload1"), core.Baseline)
	})
	for l := range 2 {
		if runs[l] != nil || errs[l] == nil || !strings.Contains(errs[l].Error(), "sample period") {
			t.Errorf("mixed sample periods, lane %d: run %v, error %v; want the mismatch error", l, runs[l], errs[l])
		}
	}
}

// TestCutBatches pins the batch cut: consecutive lanes in group order,
// no batch wider than the given width, and each group spread over
// every worker. CutBatches groups by key in first-seen order.
func TestCutBatches(t *testing.T) {
	seq := func(from, n int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = from + i
		}
		return out
	}
	widths := func(batches [][]int) []int {
		var out []int
		for _, b := range batches {
			out = append(out, len(b))
		}
		return out
	}
	// cut is the width-only cut: n cells in w-lane batches and a tail.
	cut := func(n, w int) []int {
		var out []int
		for ; n > 0; n -= w {
			out = append(out, min(n, w))
		}
		return out
	}
	def := DefaultBatchSize()
	for _, tc := range []struct {
		name           string
		groups         [][]int
		width, workers int
		want           []int // batch widths, in order
	}{
		// The manycore grid's three cells on two CPUs: a two-lane and a
		// one-lane task instead of one three-lane task.
		{"3 cells, 2 workers", [][]int{seq(0, 3)}, def, 2, []int{2, 1}},
		// Plenty of cells: the cache-sized width still caps every batch.
		{"96 cells, 2 workers", [][]int{seq(0, 96)}, def, 2, cut(96, def)},
		// One worker keeps the width-only cut.
		{"1 worker", [][]int{seq(0, 23)}, def, 1, cut(23, def)},
		{"1 worker, 3 cells", [][]int{seq(0, 3)}, def, 1, []int{3}},
		// A narrower width caps below the per-worker share.
		{"explicit width", [][]int{seq(0, 12)}, 4, 2, []int{4, 4, 4}},
		{"width 1", [][]int{seq(0, 3)}, 1, 2, []int{1, 1, 1}},
		// Each group is cut on its own, in first-seen order.
		{"two groups", [][]int{seq(0, 12), seq(12, 3)}, 10, 2, []int{6, 6, 2, 1}},
		{"more workers than cells", [][]int{seq(0, 3)}, def, 8, []int{1, 1, 1}},
	} {
		got := cutGroups(tc.groups, tc.width, tc.workers)
		if w := widths(got); !slices.Equal(w, tc.want) {
			t.Errorf("%s: batch widths %v, want %v", tc.name, w, tc.want)
		}
		var flat, want []int
		for _, b := range got {
			flat = append(flat, b...)
		}
		for _, g := range tc.groups {
			want = append(want, g...)
		}
		if !slices.Equal(flat, want) {
			t.Errorf("%s: batches %v do not cover the groups' cells in order", tc.name, got)
		}
	}

	// Interleaved keys A, B, A: A's group comes first because A is seen
	// first, and holds lanes 0 and 2.
	a, b := BatchKey{dt: 1}, BatchKey{dt: 2}
	for _, tc := range []struct {
		workers int
		want    [][]int
	}{
		{1, [][]int{{0, 2}, {1}}},
		{2, [][]int{{0}, {2}, {1}}},
	} {
		got := CutBatches([]BatchKey{a, b, a}, tc.workers)
		if !slices.EqualFunc(got, tc.want, slices.Equal) {
			t.Errorf("CutBatches(A, B, A) at %d workers = %v, want %v", tc.workers, got, tc.want)
		}
	}
}

func TestDefaultBatchSizeSane(t *testing.T) {
	if n := DefaultBatchSize(); n < 4 || n > 16 {
		t.Fatalf("DefaultBatchSize() = %d, want within [4,16]", n)
	}
}
