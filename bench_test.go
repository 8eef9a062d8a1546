package multitherm

// Kernel micro-benchmarks and ablation benches for the design choices
// DESIGN.md calls out (run `go test -run '^$' -bench . .`). Each one
// isolates a single layer; end-to-end timings of the paper's
// artifacts come from perfbench's paper_sweep workload
// (perfbench/README.md). Simulations are shortened so a full -bench
// pass stays tractable.

import (
	"fmt"
	"testing"

	"multitherm/internal/control"
	"multitherm/internal/core"
	"multitherm/internal/floorplan"
	"multitherm/internal/power"
	"multitherm/internal/sensor"
	"multitherm/internal/sim"
	"multitherm/internal/thermal"
	"multitherm/internal/units"
	"multitherm/internal/workload"
)

// --- core kernel benches ---

// BenchmarkThermalStep measures one 28 µs transient step of the 55-node
// CMP4 RC network — the inner kernel of every simulation.
func BenchmarkThermalStep(b *testing.B) {
	m, err := thermal.New(floorplan.CMP4(), thermal.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	p := make(units.PowerVec, m.NumBlocks())
	for i := range p {
		p[i] = 1.5
	}
	m.SetPower(p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Step(control.PaperSamplePeriod)
	}
}

// BenchmarkThermalStepExpmDirty measures the same 28 µs step through
// the exact ZOH discretization (T ← Φ·T + Ψ·u, no truncation error):
// one Ψ pass and one Φ pass over the dense packed propagators in the
// model's one-lane batch instead of the four RK4 stages, with SetPower
// every tick — the simulator's calling pattern under
// leakage-temperature feedback. Compare against BenchmarkThermalStep
// for the speedup.
func BenchmarkThermalStepExpmDirty(b *testing.B) {
	m, err := thermal.New(floorplan.CMP4(), thermal.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	p := make(units.PowerVec, m.NumBlocks())
	for i := range p {
		p[i] = 1.5
	}
	if err := m.UseExact(control.PaperSamplePeriod); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.SetPower(p)
		m.Step(control.PaperSamplePeriod)
	}
}

// benchThermalStepBatch measures one lockstep batched tick over k
// lanes in the simulator's calling pattern (every lane's power set
// each tick, then one Ψ panel pass and one Φ panel pass).
// ns/op is the whole batched tick; the ns/lane metric divides by k for
// direct comparison against BenchmarkThermalStepExpmDirty, the
// one-lane batch UseExact builds.
func benchThermalStepBatch(b *testing.B, k int) {
	models := make([]*thermal.Model, k)
	powers := make([]units.PowerVec, k)
	for l := range models {
		m, err := thermal.New(floorplan.CMP4(), thermal.DefaultParams())
		if err != nil {
			b.Fatal(err)
		}
		p := make(units.PowerVec, m.NumBlocks())
		for i := range p {
			p[i] = 1.5 + 0.1*float64(l)
		}
		models[l] = m
		powers[l] = p
	}
	batch, err := thermal.NewBatch(models, control.PaperSamplePeriod)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for l, m := range models {
			m.SetPower(powers[l])
		}
		batch.Step()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*k), "ns/lane")
}

func BenchmarkThermalStepBatch8(b *testing.B)  { benchThermalStepBatch(b, 8) }
func BenchmarkThermalStepBatch32(b *testing.B) { benchThermalStepBatch(b, 32) }

// benchGridStep measures one exact lockstep tick of k lanes on a
// generated Rows x Cols grid in the simulator's calling pattern (every
// lane's power set every tick, then one batch step). The 2x2 grid (26
// nodes) runs the dense packed path; 4x4, 8x8, and 16x16
// (74/266/1034 nodes) run the sparse Krylov path. Across the four
// one-lane sizes ns/op tests the scaling claim that per-step cost
// tracks nonzeros, not N²; with k > 1 the ns/lane metric compares a
// batch with the one-lane step.
func benchGridStep(b *testing.B, rows, cols, k int) {
	fp, err := floorplan.Grid(floorplan.GridSpec{
		Rows: rows, Cols: cols,
		Pattern: floorplan.PatternMixedRows,
		Cooling: floorplan.CoolingEdgeBoost,
	})
	if err != nil {
		b.Fatal(err)
	}
	models := make([]*thermal.Model, k)
	powers := make([]units.PowerVec, k)
	for l := range models {
		m, err := thermal.New(fp, thermal.FitParams(fp))
		if err != nil {
			b.Fatal(err)
		}
		p := make(units.PowerVec, m.NumBlocks())
		for i := range p {
			p[i] = 1.0 + 0.1*float64((i+l)%5)
		}
		models[l] = m
		powers[l] = p
	}
	batch, err := thermal.NewBatch(models, control.PaperSamplePeriod)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for l, m := range models {
			m.SetPower(powers[l])
		}
		batch.Step()
	}
	if k > 1 {
		b.StopTimer()
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*k), "ns/lane")
	}
}

func BenchmarkGridStepN4(b *testing.B)   { benchGridStep(b, 2, 2, 1) }
func BenchmarkGridStepN16(b *testing.B)  { benchGridStep(b, 4, 4, 1) }
func BenchmarkGridStepN64(b *testing.B)  { benchGridStep(b, 8, 8, 1) }
func BenchmarkGridStepN256(b *testing.B) { benchGridStep(b, 16, 16, 1) }

// BenchmarkGridStepN256Batch2 is the lane shape of the manycore
// artifact's critical path on two workers: its three 16x16 cells are
// cut into lockstep batches of two lanes and one.
func BenchmarkGridStepN256Batch2(b *testing.B) { benchGridStep(b, 16, 16, 2) }

// BenchmarkThermalStepFlat isolates the flattened-CSR RK4 kernel at its
// raw stability-bound step (no substep loop), so improvements to the
// integrator itself show without Step's ceil/substep bookkeeping.
func BenchmarkThermalStepFlat(b *testing.B) {
	m, err := thermal.New(floorplan.CMP4(), thermal.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	p := make(units.PowerVec, m.NumBlocks())
	for i := range p {
		p[i] = 1.5
	}
	m.SetPower(p)
	h := m.MaxStableStep()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Step(h)
	}
}

// BenchmarkThermalSteadyState measures the LU-based equilibrium solve.
func BenchmarkThermalSteadyState(b *testing.B) {
	m, err := thermal.New(floorplan.CMP4(), thermal.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	p := make(units.PowerVec, m.NumBlocks())
	p[3] = 8
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.SteadyState(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPIStep measures the discrete PI controller's per-sample cost.
func BenchmarkPIStep(b *testing.B) {
	rt := control.NewPaperPIRuntime(81.8)
	for i := 0; i < b.N; i++ {
		rt.Step(units.Celsius(80 + float64(i%7)))
	}
}

// BenchmarkSimulatorTick measures full end-to-end simulation throughput
// (ticks/second of the whole Figure 2 loop) via a fixed 10 ms run.
func BenchmarkSimulatorTick(b *testing.B) {
	cfg := sim.DefaultConfig()
	cfg.SimTime = 0.01
	mix, err := workload.MixByName("workload7")
	if err != nil {
		b.Fatal(err)
	}
	spec := core.PolicySpec{Mechanism: core.DVFS, Scope: core.Distributed, Migration: core.SensorMigration}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := sim.New(cfg, mix, spec)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := r.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- ablation benches (design choices called out in DESIGN.md) ---

// ablationRun runs workload7 for 50 ms under a modified configuration
// and reports achieved BIPS as a custom metric.
func ablationRun(b *testing.B, mutate func(*sim.Config), spec core.PolicySpec) {
	b.Helper()
	cfg := sim.DefaultConfig()
	cfg.SimTime = 0.05
	if mutate != nil {
		mutate(&cfg)
	}
	mix, err := workload.MixByName("workload7")
	if err != nil {
		b.Fatal(err)
	}
	var bips float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := sim.New(cfg, mix, spec)
		if err != nil {
			b.Fatal(err)
		}
		m, err := r.Run()
		if err != nil {
			b.Fatal(err)
		}
		bips = float64(m.BIPS())
	}
	b.ReportMetric(bips, "BIPS")
}

// BenchmarkAblationControllerPI vs. a crude bang-bang alternative: the
// stop-go rows of the taxonomy ARE the bang-bang ablation; these two
// benches make the comparison directly visible as custom metrics.
func BenchmarkAblationControllerPI(b *testing.B) {
	ablationRun(b, nil, core.PolicySpec{Mechanism: core.DVFS, Scope: core.Distributed})
}

func BenchmarkAblationControllerBangBang(b *testing.B) {
	ablationRun(b, nil, core.PolicySpec{Mechanism: core.StopGo, Scope: core.Distributed})
}

// BenchmarkAblationMigrationEpoch sweeps the OS migration epoch.
func BenchmarkAblationMigrationEpoch(b *testing.B) {
	for _, epoch := range []units.Seconds{2e-3, 10e-3, 50e-3} {
		b.Run(formatMS(float64(epoch)), func(b *testing.B) {
			ablationRun(b, func(c *sim.Config) { c.MigrationEpoch = epoch },
				core.PolicySpec{Mechanism: core.StopGo, Scope: core.Distributed, Migration: core.CounterMigration})
		})
	}
}

// BenchmarkAblationMigrationPenalty sweeps the context-switch cost.
func BenchmarkAblationMigrationPenalty(b *testing.B) {
	for _, pen := range []units.Seconds{10e-6, 100e-6, 1e-3} {
		b.Run(formatUS(float64(pen)), func(b *testing.B) {
			ablationRun(b, func(c *sim.Config) { c.MigrationPenalty = pen },
				core.PolicySpec{Mechanism: core.DVFS, Scope: core.Distributed, Migration: core.SensorMigration})
		})
	}
}

// BenchmarkAblationVoltageFloor compares the paper's pure-cubic DVFS
// power model against a realistic regulator floor.
func BenchmarkAblationVoltageFloor(b *testing.B) {
	for _, floor := range []float64{0, 0.7} {
		name := "cubic"
		if floor > 0 {
			name = "vfloor0.7"
		}
		b.Run(name, func(b *testing.B) {
			ablationRun(b, func(c *sim.Config) { c.Power.VFloor = floor },
				core.PolicySpec{Mechanism: core.DVFS, Scope: core.Distributed})
		})
	}
}

// BenchmarkAblationSensorNoise degrades the sensors that feed
// sensor-based migration.
func BenchmarkAblationSensorNoise(b *testing.B) {
	// Sensor parameters live on the bank built inside the runner;
	// emulate degradation through quantization-equivalent threshold
	// margin instead.
	for _, margin := range []units.Celsius{0.3, 1.0, 2.0} {
		b.Run(formatC(float64(margin)), func(b *testing.B) {
			ablationRun(b, func(c *sim.Config) { c.Policy.TripMarginC = margin },
				core.PolicySpec{Mechanism: core.StopGo, Scope: core.Distributed, Migration: core.SensorMigration})
		})
	}
}

// BenchmarkAblationDiscretization compares c2d methods on control cost.
func BenchmarkAblationDiscretization(b *testing.B) {
	for _, method := range []control.DiscretizeMethod{control.ForwardEuler, control.BackwardEuler, control.Tustin} {
		b.Run(method.String(), func(b *testing.B) {
			law := control.C2DPI(control.PaperKp, control.PaperKi, control.PaperSamplePeriod, method)
			rt := control.NewPIRuntime(law, control.DefaultPILimits(), 81.8)
			temp := 60.0
			var worst float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				u := float64(rt.Step(units.Celsius(temp)))
				eq := 45 + 52*u*u*u
				temp += (eq - temp) * float64(control.PaperSamplePeriod) / 25e-3
				if temp > worst {
					worst = temp
				}
			}
			b.ReportMetric(worst, "peakC")
		})
	}
}

// BenchmarkAblationThermalStepSize measures integrator cost vs step.
func BenchmarkAblationThermalStepSize(b *testing.B) {
	for _, dt := range []units.Seconds{7e-6, 28e-6, 112e-6} {
		b.Run(formatUS(float64(dt)), func(b *testing.B) {
			m, err := thermal.New(floorplan.CMP4(), thermal.DefaultParams())
			if err != nil {
				b.Fatal(err)
			}
			p := make(units.PowerVec, m.NumBlocks())
			for i := range p {
				p[i] = 1.5
			}
			m.SetPower(p)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Step(dt)
			}
		})
	}
}

// benchBlockPower measures one power.Calculator.BlockPower call — the
// per-tick power layer, whose cost is mostly the per-block leakage
// exponential — with every core at full speed and block temperatures
// spread over 60–100 °C.
func benchBlockPower(b *testing.B, fp *floorplan.Floorplan) {
	calc, err := power.NewCalculator(fp, power.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	nb := len(fp.Blocks)
	activity := make([]float64, nb)
	temps := make(units.TempVec, nb)
	for i := range temps {
		activity[i] = 0.3 + 0.1*float64(i%7)
		temps[i] = 60 + 40*float64(i)/float64(nb)
	}
	cores := make([]power.CoreState, fp.NumCores())
	for c := range cores {
		cores[c] = power.CoreState{Scale: 1}
	}
	dst := units.MakePowerVec(nb)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		calc.BlockPower(dst, activity, cores, temps)
	}
}

// BenchmarkBlockPowerCMP4 is the power layer of the paper's 4-core
// tick (45 blocks).
func BenchmarkBlockPowerCMP4(b *testing.B) { benchBlockPower(b, floorplan.CMP4()) }

// BenchmarkBlockPower16x16 is the power layer of the 256-core grid
// (1024 blocks).
func BenchmarkBlockPower16x16(b *testing.B) {
	fp, err := floorplan.Grid(floorplan.GridSpec{Rows: 16, Cols: 16})
	if err != nil {
		b.Fatal(err)
	}
	benchBlockPower(b, fp)
}

// BenchmarkSensorRead measures the hottest-of-bank reduction feeding
// every controller decision.
func BenchmarkSensorRead(b *testing.B) {
	fp := floorplan.CMP4()
	bank, err := sensor.CoreHotspots(fp)
	if err != nil {
		b.Fatal(err)
	}
	temps := make(units.TempVec, len(fp.Blocks))
	for i := range temps {
		temps[i] = 70 + float64(i%9)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bank.Hottest(temps, int64(i))
	}
}

func formatMS(v float64) string { return fmt.Sprintf("%gms", v*1e3) }
func formatUS(v float64) string { return fmt.Sprintf("%gus", v*1e6) }
func formatC(v float64) string  { return fmt.Sprintf("%gC", v) }
