package sim

import (
	"runtime"
	"testing"

	"multitherm/internal/core"
	"multitherm/internal/floorplan"
)

// TestTickLoopAllocations pins the steady-state tick to its allocation
// budget by count, not by timing: after a warm-up it counts heap
// allocations over a fixed run of ticks through the begin/pre/post
// loop Run drives, with the thermal step armed the way Run arms it: a
// one-lane exact batch where PreferExact says so (UseExact), RK4
// otherwise. A cell without migration must not allocate at all.
// Migration decisions and time-shared rotations allocate a little,
// once per decision; the budget is one allocation per 10 ticks, so a
// single allocation on every tick fails.
//
// testing.AllocsPerRun is no use here: it divides by the run count and
// floors the mean, which reads 0 for every cell.
func TestTickLoopAllocations(t *testing.T) {
	const (
		warmTicks  = 200
		countTicks = 4000
		budget     = countTicks / 10
	)
	count := func(t *testing.T, r *Runner) uint64 {
		t.Helper()
		st, err := r.begin()
		if err != nil {
			t.Fatal(err)
		}
		if r.model.PreferExact(st.dt) {
			if err := r.model.UseExact(st.dt); err != nil {
				t.Fatal(err)
			}
		}
		step := func() {
			if st.done() {
				t.Fatalf("run ended at tick %d, before the count finished", st.tick)
			}
			if err := st.pre(); err != nil {
				t.Fatal(err)
			}
			r.model.Step(st.dt)
			st.post()
		}
		for k := 0; k < warmTicks; k++ {
			step()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for k := 0; k < countTicks; k++ {
			step()
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}

	cfg := DefaultConfig()
	cfg.SimTime = 0.12 // 4320 ticks at the paper's sample period
	mix := mustMix(t, "workload7")
	for _, spec := range core.Taxonomy() {
		t.Run(spec.CLIName(), func(t *testing.T) {
			r, err := New(cfg, mix, spec)
			if err != nil {
				t.Fatal(err)
			}
			got := count(t, r)
			switch {
			case spec.Migration == core.NoMigration && got != 0:
				t.Errorf("%d allocations over %d ticks, want 0", got, countTicks)
			case got >= budget:
				t.Errorf("%d allocations over %d ticks, want under %d", got, countTicks, budget)
			}
		})
	}

	t.Run("grid4x4-timeshared", func(t *testing.T) {
		spec, err := floorplan.ParseGridSpec("4x4")
		if err != nil {
			t.Fatal(err)
		}
		gcfg, procs, err := GridConfig(spec)
		if err != nil {
			t.Fatal(err)
		}
		gcfg.SimTime = cfg.SimTime
		r, err := NewTimeshared(gcfg, "grid4x4", procs,
			core.PolicySpec{Mechanism: core.DVFS, Scope: core.Distributed}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got := count(t, r); got >= budget {
			t.Errorf("%d allocations over %d ticks, want under %d", got, countTicks, budget)
		}
	})
}
