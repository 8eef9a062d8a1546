package experiments

import (
	"fmt"
	"strings"

	"multitherm/internal/core"
	"multitherm/internal/floorplan"
	"multitherm/internal/sim"
	"multitherm/internal/units"
	"multitherm/internal/workload"
)

// Fig5Point is one sample of the Figure 5 time series for the observed
// core: both register-file hotspot temperatures, the DVFS scale factor,
// and the resident benchmark.
type Fig5Point struct {
	TimeMS    float64
	IntRF     units.Celsius
	FPRF      units.Celsius
	Scale     units.ScaleFactor
	Benchmark string
	Migrated  bool // a migration landed on this core at this sample
}

// Fig5Result reproduces Figure 5: temperatures and DVFS control across
// several migration intervals on a single core, for the paper's example
// workload gzip-twolf-ammp-lucas under distributed DVFS with
// counter-based migration.
type Fig5Result struct {
	Core     int
	Workload string
	Points   []Fig5Point
}

// RunFig5 extracts the Figure 5 time series.
func RunFig5(o Options) (*Fig5Result, error) {
	cfg := o.simConfig()
	if cfg.SimTime < 0.12 {
		cfg.SimTime = 0.12
	}
	mix, err := workload.MixByName("workload7") // gzip-twolf-ammp-lucas
	if err != nil {
		return nil, err
	}
	spec := core.PolicySpec{Mechanism: core.DVFS, Scope: core.Distributed, Migration: core.CounterMigration}
	r, err := sim.New(cfg, mix, spec)
	if err != nil {
		return nil, err
	}
	const observed = 0
	fp := cfg.Floorplan
	irf := fp.FindCoreBlock(observed, floorplan.KindIntRegFile)
	fprf := fp.FindCoreBlock(observed, floorplan.KindFPRegFile)

	out := &Fig5Result{Core: observed, Workload: mix.Label()}
	// Sample every ~0.55 ms (the paper's figure resolution), skipping a
	// short warm-in so the controllers have locked.
	const sampleEvery = 20 // ticks of 27.8 µs
	warmTicks := int64(0.02 / core.DefaultParams().SamplePeriod)
	lastProc := -1
	r.SetProbe(func(now units.Seconds, tick int64, temps units.TempVec, cmds []core.CoreCommand, assign []int) {
		if tick < warmTicks || tick%sampleEvery != 0 {
			return
		}
		proc := assign[observed]
		p := Fig5Point{
			TimeMS:    float64(now-units.Seconds(warmTicks)*core.DefaultParams().SamplePeriod) * 1e3,
			IntRF:     temps.At(irf),
			FPRF:      temps.At(fprf),
			Scale:     cmds[observed].Scale,
			Benchmark: mix.Benchmarks[proc],
			Migrated:  lastProc >= 0 && proc != lastProc,
		}
		lastProc = proc
		out.Points = append(out.Points, p)
	})
	if _, err := r.Run(); err != nil {
		return nil, err
	}
	return out, nil
}

// Migrations returns how many thread changes the observed core saw.
func (f *Fig5Result) Migrations() int {
	n := 0
	for _, p := range f.Points {
		if p.Migrated {
			n++
		}
	}
	return n
}

// Render implements Result: an ASCII rendition of the two panels.
func (f *Fig5Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5: core %d of %s under Dist. DVFS + counter-based migration\n", f.Core, f.Workload)
	fmt.Fprintf(&b, "(a) hotspot temperatures  (b) frequency scale factor\n")
	fmt.Fprintf(&b, "%8s  %8s  %8s  %6s  %-8s\n", "t (ms)", "IRF °C", "FPRF °C", "scale", "thread")
	step := len(f.Points)/48 + 1
	for i := 0; i < len(f.Points); i += step {
		p := f.Points[i]
		marker := ""
		// Surface any migration within the printed stride.
		for j := i; j < i+step && j < len(f.Points); j++ {
			if f.Points[j].Migrated {
				marker = "  <- migration: " + f.Points[j].Benchmark + " in"
				break
			}
		}
		fmt.Fprintf(&b, "%8.2f  %8.2f  %8.2f  %6.2f  %-8s%s\n",
			p.TimeMS, p.IntRF, p.FPRF, p.Scale, p.Benchmark, marker)
	}
	fmt.Fprintf(&b, "migrations observed on this core: %d\n", f.Migrations())
	return b.String()
}
