package sim

import (
	"testing"

	"multitherm/internal/core"
	"multitherm/internal/units"
)

func sixBench() []string {
	return []string{"gzip", "twolf", "ammp", "lucas", "mcf", "sixtrack"}
}

func TestTimesharedRejectsBadInputs(t *testing.T) {
	cfg := quickCfg()
	if _, err := NewTimeshared(cfg, "x", []string{"gzip"}, core.Baseline, 0); err == nil {
		t.Error("fewer processes than cores accepted")
	}
	if _, err := NewTimeshared(cfg, "x", []string{"gzip", "doom3", "mcf", "vpr", "art"}, core.Baseline, 0); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

// TestConstructorsRejectBadCoreCaps checks that the paper-mix and
// time-shared constructors validate CoreMaxScale alike: a cap slice
// must match the core count and every cap must lie in [Limits.Min, 1].
func TestConstructorsRejectBadCoreCaps(t *testing.T) {
	cases := []struct {
		name string
		caps []units.ScaleFactor
	}{
		{"too few entries", []units.ScaleFactor{1, 1, 0.7}},
		{"too many entries", []units.ScaleFactor{1, 1, 0.7, 0.7, 0.7}},
		{"below the DVFS floor", []units.ScaleFactor{1, 1, 0.1, 0.1}},
		{"above nominal", []units.ScaleFactor{1, 1, 1.5, 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := quickCfg()
			cfg.CoreMaxScale = tc.caps
			if _, err := New(cfg, mustMix(t, "workload1"), core.Baseline); err == nil {
				t.Error("New accepted the caps")
			}
			if _, err := NewTimeshared(cfg, "x", sixBench(), core.Baseline, 0); err == nil {
				t.Error("NewTimeshared accepted the caps")
			}
		})
	}
}

func TestTimesharedFairness(t *testing.T) {
	// Six processes on four cores: every process must make progress and
	// the spread between the most- and least-served process must be
	// bounded (round-robin fairness).
	cfg := quickCfg()
	cfg.SimTime = 0.3
	r, err := NewTimeshared(cfg, "sixmix", sixBench(), core.PolicySpec{
		Mechanism: core.DVFS, Scope: core.Distributed}, 20e-3)
	if err != nil {
		t.Fatal(err)
	}
	m, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if m.Preemptions == 0 {
		t.Fatal("no fairness preemptions with 6 procs on 4 cores")
	}
	var min, max float64 = 1e18, 0
	for _, p := range r.Scheduler().Processes() {
		cy := p.Lifetime.AdjCycles
		if cy <= 0 {
			t.Errorf("process %s starved", p.Benchmark)
		}
		if cy < min {
			min = cy
		}
		if cy > max {
			max = cy
		}
	}
	// With 6 procs on 4 cores each is entitled to ~2/3 of a core;
	// thermal throttling skews shares, but nobody should get less than
	// a quarter of the largest share.
	if min < max/4 {
		t.Errorf("unfair shares: min %.3g vs max %.3g adjusted cycles", min, max)
	}
}

func TestTimesharedWithMigrationSafe(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run simulation")
	}
	cfg := quickCfg()
	cfg.SimTime = 0.2
	for _, kind := range []core.MigrationKind{core.CounterMigration, core.SensorMigration} {
		r, err := NewTimeshared(cfg, "sixmix", sixBench(), core.PolicySpec{
			Mechanism: core.DVFS, Scope: core.Distributed, Migration: kind}, 20e-3)
		if err != nil {
			t.Fatal(err)
		}
		m, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		if m.EmergencySeconds > 0.001 {
			t.Errorf("%v: thermal emergencies under multiprogramming", kind)
		}
		if m.BIPS() <= 0 {
			t.Errorf("%v: no throughput", kind)
		}
		// Migration must not break fairness: everyone still runs.
		for _, p := range r.Scheduler().Processes() {
			if p.Lifetime.AdjCycles <= 0 {
				t.Errorf("%v: process %s starved", kind, p.Benchmark)
			}
		}
	}
}

func TestTimesharedMatchesDedicatedWhenSquare(t *testing.T) {
	// With exactly four processes the time-shared runner must behave
	// like the standard one (no waiting set, no preemptions).
	cfg := quickCfg()
	mix := mustMix(t, "workload7")
	r, err := NewTimeshared(cfg, mix.Name, mix.Benchmarks[:], core.Baseline, 20e-3)
	if err != nil {
		t.Fatal(err)
	}
	mt, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if mt.Preemptions != 0 {
		t.Errorf("square time-shared run preempted %d times", mt.Preemptions)
	}
	std, err := New(cfg, mix, core.Baseline)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := std.Run()
	if err != nil {
		t.Fatal(err)
	}
	if mt.Instructions != ms.Instructions {
		t.Errorf("square time-shared run diverged: %v vs %v instructions",
			mt.Instructions, ms.Instructions)
	}
}
