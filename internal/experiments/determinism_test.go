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
// Three mixes make the 8- and 10-wide batches straddle the variant
// boundary, so those batches hold lanes of both configs.
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
}

// TestBatchingDoesNotChangeResults is the determinism guard for the
// lockstep batch engine: the same study at -batch 1 (every cell runs
// its own thermal model) and at -batch 8 (cells fused through the
// shared-propagator panel kernel) must render byte-identical reports.
// Any drift means the batched tick perturbed a rounding somewhere —
// the panel kernel reordered an FMA, a lane read a neighbour's state —
// and would silently change every batched reproduction.
func TestBatchingDoesNotChangeResults(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full studies twice")
	}
	for _, tc := range determinismCases {
		t.Run(tc.name, func(t *testing.T) {
			unbatched := tc.opt
			unbatched.Batch = 1
			a, err := tc.run(unbatched)
			if err != nil {
				t.Fatal(err)
			}
			batched := tc.opt
			batched.Batch = 8
			b, err := tc.run(batched)
			if err != nil {
				t.Fatal(err)
			}
			if a.Render() != b.Render() {
				t.Errorf("%s renders differently at Batch=1 vs 8:\n--- unbatched ---\n%s\n--- batched ---\n%s",
					tc.name, a.Render(), b.Render())
			}
		})
	}
}

// TestRaggedBatchesUnderStealingDoNotChangeResults crosses the two
// axes the work-stealing engine mixes at runtime: odd batch widths that
// never divide the (Template, dt) group sizes evenly (so every group
// ends in a ragged tail), and several worker counts (so concurrent
// claimers split groups at scheduling-dependent boundaries). Whatever
// partition the claim interleaving produces, the rendered study must be
// byte-identical to the sequential unbatched run — the PR 3 bit-equality
// guarantee, now load-bearing for dynamic batch formation.
func TestRaggedBatchesUnderStealingDoNotChangeResults(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full studies repeatedly")
	}
	opt := Options{SimTime: 0.01, Workloads: workload.Mixes[:3]}
	base := opt
	base.Parallelism, base.Batch = 1, 1
	want, err := RunTable8(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		for _, width := range []int{3, 5, 7} {
			o := opt
			o.Parallelism, o.Batch = workers, width
			got, err := RunTable8(o)
			if err != nil {
				t.Fatalf("workers=%d batch=%d: %v", workers, width, err)
			}
			if got.Render() != want.Render() {
				t.Errorf("workers=%d batch=%d renders differently from sequential unbatched:\n--- want ---\n%s\n--- got ---\n%s",
					workers, width, want.Render(), got.Render())
			}
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
