package experiments

import (
	"testing"

	"multitherm/internal/workload"
)

// determinismCases are the grids both determinism guards render twice.
// Beyond the two policy studies they cover every artifact whose lanes
// differ in more than policy and mix: DTM-off lanes batched with
// throttled ones (dutyvalid), two thresholds in one grid
// (sensitivity), capped and uncapped configs sharing one template
// (hetero), and time-shared lanes on the sparse 4x4 grid (manycore).
// Three mixes make the 10-wide batches of a one-worker run straddle
// the variant boundary, so those batches hold lanes of both configs.
// table1 runs no grid: its four ranging rows go onto the pool as
// separate models sharing the calibrated calculator and diode.
var determinismCases = []struct {
	name string
	opt  Options
	run  func(Options) (Result, error)
}{
	{
		name: "fig3",
		opt:  Options{SimTime: 0.02, Workloads: workload.Mixes[:3]},
		run:  func(o Options) (Result, error) { return RunFig3(o) },
	},
	{
		name: "table8",
		opt:  Options{SimTime: 0.01, Workloads: workload.Mixes[:2]},
		run:  func(o Options) (Result, error) { return RunTable8(o) },
	},
	{
		name: "fig7",
		opt:  Options{SimTime: 0.01, Workloads: workload.Mixes[:3]},
		run:  func(o Options) (Result, error) { return RunFig7(o) },
	},
	{
		name: "dutyvalid",
		opt:  Options{SimTime: 0.01, Workloads: workload.Mixes[:3]},
		run:  func(o Options) (Result, error) { return RunDutyValidity(o) },
	},
	{
		name: "sensitivity",
		opt:  Options{SimTime: 0.01, Workloads: workload.Mixes[:3]},
		run:  func(o Options) (Result, error) { return RunSensitivity(o) },
	},
	{
		name: "hetero",
		opt:  Options{SimTime: 0.01, Workloads: workload.Mixes[:3]},
		run:  func(o Options) (Result, error) { return RunHetero(o) },
	},
	{
		name: "manycore",
		opt:  Options{SimTime: 0.01},
		run:  func(o Options) (Result, error) { return RunManycore(o) },
	},
	{
		name: "table1",
		run:  func(o Options) (Result, error) { return RunTable1(o) },
	},
}

// oneLaneWorkers is a worker count above every determinism case's
// cell count. runCells cuts a group into batches of at most
// ceil(group/workers) lanes, so at this count every batch holds one
// lane and every cell steps alone. ForEach starts at most one pool
// worker per batch, so the large count starts no more goroutines than
// cells.
const oneLaneWorkers = 256

// TestBatchingDoesNotChangeResults is the determinism guard for the
// lockstep batch engine: the same study with one worker (cells fused
// into batches of up to sim.DefaultBatchSize lanes through the
// shared-propagator panel kernel) and with oneLaneWorkers (every cell
// in its own one-lane batch) must render byte-identical reports. Any
// drift means the batched tick perturbed a rounding somewhere — the
// panel kernel reordered an FMA, a lane read a neighbour's state — and
// would silently change every batched reproduction.
func TestBatchingDoesNotChangeResults(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full studies twice")
	}
	for _, tc := range determinismCases {
		t.Run(tc.name, func(t *testing.T) {
			batched := tc.opt
			batched.Parallelism = 1
			a, err := tc.run(batched)
			if err != nil {
				t.Fatal(err)
			}
			alone := tc.opt
			alone.Parallelism = oneLaneWorkers
			b, err := tc.run(alone)
			if err != nil {
				t.Fatal(err)
			}
			if a.Render() != b.Render() {
				t.Errorf("%s renders differently batched vs one lane per batch:\n--- batched ---\n%s\n--- one lane ---\n%s",
					tc.name, a.Render(), b.Render())
			}
		})
	}
}

// TestRaggedBatchesUnderStealingDoNotChangeResults crosses the two
// axes the batch engine mixes at runtime on table8's 36-cell grid,
// which shares one (Template, dt) key: batch cuts that leave a ragged
// tail, and several workers (so batches of one group run concurrently
// and finish in scheduling-dependent order). One worker cuts
// 10,10,10,6; five cut 8,8,8,8,4; eight cut seven 5-lane batches and
// a lone lane. The rendered study must be byte-identical to the run
// with one lane per batch — the batched-equals-sequential bit-equality
// guarantee.
func TestRaggedBatchesUnderStealingDoNotChangeResults(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full studies repeatedly")
	}
	opt := Options{SimTime: 0.01, Workloads: workload.Mixes[:3]}
	base := opt
	base.Parallelism = oneLaneWorkers
	want, err := RunTable8(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 5, 8} {
		o := opt
		o.Parallelism = workers
		got, err := RunTable8(o)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got.Render() != want.Render() {
			t.Errorf("workers=%d renders differently from one lane per batch:\n--- want ---\n%s\n--- got ---\n%s",
				workers, want.Render(), got.Render())
		}
	}
}

// TestParallelismDoesNotChangeResults is the determinism guard for the
// sweep engine: the same study run sequentially and with a saturated
// worker pool must render byte-identical reports. Any drift here means
// shared mutable state leaked between cells (a template mutated, a
// cache returned a non-deterministic value, a result slotted by arrival
// order) and would silently corrupt every parallel reproduction.
func TestParallelismDoesNotChangeResults(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full studies twice")
	}
	for _, tc := range determinismCases {
		t.Run(tc.name, func(t *testing.T) {
			seq := tc.opt
			seq.Parallelism = 1
			a, err := tc.run(seq)
			if err != nil {
				t.Fatal(err)
			}
			par := tc.opt
			par.Parallelism = 8
			b, err := tc.run(par)
			if err != nil {
				t.Fatal(err)
			}
			if a.Render() != b.Render() {
				t.Errorf("%s renders differently at Parallelism=1 vs 8:\n--- sequential ---\n%s\n--- parallel ---\n%s",
					tc.name, a.Render(), b.Render())
			}
		})
	}
}
