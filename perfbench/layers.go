package main

import (
	"fmt"
	"runtime"
	"time"

	"multitherm/internal/core"
	"multitherm/internal/floorplan"
	"multitherm/internal/migration"
	"multitherm/internal/osched"
	"multitherm/internal/power"
	"multitherm/internal/sensor"
	"multitherm/internal/sim"
	"multitherm/internal/thermal"
	"multitherm/internal/trace"
	"multitherm/internal/uarch"
	"multitherm/internal/units"
	"multitherm/internal/workload"
)

// layerLoop is how long each isolated layer call is repeated.
const layerLoop = 150 * time.Millisecond

// tickCell is the representative cell a tick breakdown runs: the
// paper's chip over the workload mixes, or one generated grid
// timesharing a process population.
type tickCell struct {
	cfg    sim.Config
	policy core.PolicySpec
	// mixes are run one runner each on the paper chip; procs and label
	// describe a timeshared grid cell instead.
	mixes []workload.Mix
	procs []string
	label string
	// shortSimTime shortens the runs that only count allocations,
	// capture inputs, time the tracing overhead, or step
	// sim.DefaultBatchSize() lanes at once.
	shortSimTime units.Seconds
}

func (c tickCell) runners() int {
	if c.procs != nil {
		return 1
	}
	return len(c.mixes)
}

func (c tickCell) newRunner(cfg sim.Config, i int) (*sim.Runner, error) {
	if c.procs != nil {
		return sim.NewTimeshared(cfg, c.label, c.procs, c.policy, 0)
	}
	return sim.New(cfg, c.mixes[i%len(c.mixes)], c.policy)
}

// processes is the process population of runner 0, whose ticks the
// isolated calls replay.
func (c tickCell) processes() []string {
	if c.procs != nil {
		return c.procs
	}
	return c.mixes[0].Benchmarks[:]
}

// captured is one tick's inputs, copied out of the Probe.
type captured struct {
	tick   int64
	temps  units.TempVec
	cmds   []core.CoreCommand
	assign []int
}

// tickBreakdown measures where a simulation tick goes: per-tick spans
// from consecutive Probe callbacks, then each layer's public call timed
// in isolation on inputs captured through the Probe. The prefix names
// the floorplan size in span names (n4, n256).
func tickBreakdown(b *bench, c tickCell) error {
	fp := c.cfg.Floorplan
	nCores := fp.NumCores()
	dt := c.cfg.Policy.SamplePeriod
	parent := b.tr.id()
	t0 := time.Now()
	defer func() { b.tr.add(parent, 0, 0, fmt.Sprintf("tick_breakdown.n%d", nCores), t0, time.Now(), 0) }()

	// sim.New on warm memos.
	var newUS []float64
	for i := 0; len(newUS) < 3 || (i < 4*c.runners() && time.Since(t0) < layerLoop); i++ {
		s := time.Now()
		if _, err := c.newRunner(c.cfg, i); err != nil {
			return err
		}
		e := time.Now()
		b.tr.record(parent, 0, "sim.New", s, e, 0)
		newUS = append(newUS, float64(e.Sub(s).Nanoseconds())/1e3)
	}
	b.set("sim.new_us", median(newUS))

	// Per-tick spans: consecutive Probe callbacks bound one tick each.
	// The first callback also covers Run's set-up, so it is dropped.
	var tickNS []float64
	var ticks, preemptions int64
	for i := 0; i < c.runners(); i++ {
		r, err := c.newRunner(c.cfg, i)
		if err != nil {
			return err
		}
		stamps := make([]time.Time, 0, int(float64(c.cfg.SimTime/dt))+2)
		r.SetProbe(func(units.Seconds, int64, units.TempVec, []core.CoreCommand, []int) {
			stamps = append(stamps, time.Now())
		})
		runID := b.tr.id()
		s := time.Now()
		m, err := r.Run()
		if err != nil {
			return err
		}
		b.tr.add(runID, parent, 0, "sim.Run", s, time.Now(), 0)
		for k := 1; k < len(stamps); k++ {
			b.tr.record(runID, 0, "sim.tick", stamps[k-1], stamps[k], 0)
			tickNS = append(tickNS, float64(stamps[k].Sub(stamps[k-1]).Nanoseconds()))
		}
		ticks += int64(len(stamps))
		preemptions += int64(m.Preemptions)
	}
	tick := median(tickNS)
	b.set("sim.tick_ns", tick)
	b.set("sim.tick_p99_ns", percentile(tickNS, 99))

	// Allocations of a probe-free run, per tick.
	short := c.cfg
	short.SimTime = c.shortSimTime
	shortTicks := float64(int64(float64(c.shortSimTime/dt) + 0.5))
	r, err := c.newRunner(short, 0)
	if err != nil {
		return err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s := time.Now()
	if _, err := r.Run(); err != nil {
		return err
	}
	untraced := time.Since(s)
	runtime.ReadMemStats(&after)
	b.set("sim.allocs_per_tick", float64(after.Mallocs-before.Mallocs)/shortTicks)

	// Tracing overhead: the same run with a span per tick, against the
	// probe-free run, alternating.
	var plain, spanned []float64
	plain = append(plain, untraced.Seconds())
	for k := 0; k < 3; k++ {
		r, err := c.newRunner(short, 0)
		if err != nil {
			return err
		}
		last := time.Now()
		r.SetProbe(func(units.Seconds, int64, units.TempVec, []core.CoreCommand, []int) {
			now := time.Now()
			b.tr.record(parent, 0, "tracing.probe_tick", last, now, 0)
			last = now
		})
		s := time.Now()
		if _, err := r.Run(); err != nil {
			return err
		}
		spanned = append(spanned, time.Since(s).Seconds())
		if k < 2 {
			r, err := c.newRunner(short, 0)
			if err != nil {
				return err
			}
			s := time.Now()
			if _, err := r.Run(); err != nil {
				return err
			}
			plain = append(plain, time.Since(s).Seconds())
		}
	}
	b.set("tracing.overhead_frac", (median(spanned)-median(plain))/median(plain))

	// Lockstep batch at the default width.
	lanes := sim.DefaultBatchSize()
	rs := make([]*sim.Runner, lanes)
	for l := range rs {
		if rs[l], err = c.newRunner(short, l); err != nil {
			return err
		}
	}
	br, err := sim.NewBatchRunner(rs)
	if err != nil {
		return err
	}
	s = time.Now()
	if _, err := br.Run(); err != nil {
		return err
	}
	e := time.Now()
	b.tr.record(parent, 0, "sim.BatchRunner.Run", s, e, lanes)
	b.set("sim.batch_tick_ns_per_lane", float64(e.Sub(s).Nanoseconds())/(shortTicks*float64(lanes)))

	// Capture inputs for the isolated calls.
	caps, err := captureTicks(c, short, 64)
	if err != nil {
		return err
	}
	return isolatedLayers(b, parent, c, caps, tick, float64(preemptions)/float64(ticks))
}

// captureTicks runs runner 0 once under cfg and copies out up to n
// evenly spaced ticks' probe inputs.
func captureTicks(c tickCell, cfg sim.Config, n int) ([]captured, error) {
	r, err := c.newRunner(cfg, 0)
	if err != nil {
		return nil, err
	}
	total := int64(float64(cfg.SimTime/cfg.Policy.SamplePeriod) + 0.5)
	stride := total / int64(n)
	if stride < 1 {
		stride = 1
	}
	var caps []captured
	r.SetProbe(func(_ units.Seconds, tick int64, temps units.TempVec, cmds []core.CoreCommand, assign []int) {
		if tick%stride != 0 || len(caps) >= n {
			return
		}
		caps = append(caps, captured{
			tick:   tick,
			temps:  append(units.TempVec(nil), temps...),
			cmds:   append([]core.CoreCommand(nil), cmds...),
			assign: append([]int(nil), assign...),
		})
	})
	if _, err := r.Run(); err != nil {
		return nil, err
	}
	return caps, nil
}

// isolatedLayers times each layer's public per-tick call on the
// captured inputs and derives the tick shares.
func isolatedLayers(b *bench, parent int64, c tickCell, caps []captured, tickNS, rotationsPerTick float64) error {
	cfg := c.cfg
	fp := cfg.Floorplan
	nCores := fp.NumCores()
	dt := cfg.Policy.SamplePeriod
	procs := c.processes()
	timed := func(name string, calls int, fn func()) float64 {
		s := time.Now()
		v := timePer(layerLoop, calls, fn)
		b.tr.record(parent, 0, name, s, time.Now(), calls)
		return v
	}

	// trace: record the population's traces cold, then walk cursors the
	// way a tick does (one Current and one Advance per core).
	traces := map[string]*trace.Trace{}
	var recordMS []float64
	for _, name := range procs {
		if traces[name] != nil {
			continue
		}
		prof, err := workload.Profile(name)
		if err != nil {
			return err
		}
		gen, err := uarch.NewGenerator(cfg.Uarch, prof)
		if err != nil {
			return err
		}
		s := time.Now()
		tr, err := trace.Record(gen, cfg.TraceIntervals)
		if err != nil {
			return err
		}
		recordMS = append(recordMS, ms(time.Since(s)))
		traces[name] = tr
	}
	b.set("trace.record_ms", median(recordMS))
	cursors := make([]*trace.Cursor, len(procs))
	for p, name := range procs {
		cursors[p] = trace.NewCursor(traces[name])
	}
	traceNS := timed("trace.Cursor.Advance", len(caps), func() {
		for _, cp := range caps {
			for core, p := range cp.assign {
				cur := cursors[p]
				_ = cur.Current()
				if !cp.cmds[core].Stall {
					cur.Advance(float64(cp.cmds[core].Scale))
				}
			}
		}
	})
	b.set("trace.advance_ns", traceNS)

	// power: per-block activity from the traces under each captured
	// assignment, then BlockPower with the captured commands and temps.
	calc, err := power.NewCalculator(fp, cfg.Power)
	if err != nil {
		return err
	}
	activity := make([][]float64, len(caps))
	states := make([][]power.CoreState, len(caps))
	powers := make([]units.PowerVec, len(caps))
	for k, cp := range caps {
		activity[k] = blockActivity(fp, cp, procs, traces)
		states[k] = make([]power.CoreState, nCores)
		for i, cmd := range cp.cmds {
			if cmd.Stall {
				states[k][i] = power.CoreState{Scale: 1, Stalled: true}
			} else {
				states[k][i] = power.CoreState{Scale: cmd.Scale}
			}
		}
		powers[k] = calc.BlockPower(nil, activity[k], states[k], cp.temps)
	}
	dst := make(units.PowerVec, len(fp.Blocks))
	powerNS := timed("power.Calculator.BlockPower", len(caps), func() {
		for k, cp := range caps {
			calc.BlockPower(dst, activity[k], states[k], cp.temps)
		}
	})
	b.set("power.block_power_ns", powerNS)

	// thermal: SetPower+Step on the armed exact path, alone and batched.
	tmpl, err := thermal.TemplateFor(fp, cfg.Thermal)
	if err != nil {
		return err
	}
	model := tmpl.NewModel()
	if err := model.InitSteadyState(powers[0]); err != nil {
		return err
	}
	if tmpl.PreferExact(dt) {
		if err := model.UseExact(dt); err != nil {
			return err
		}
	}
	thermalNS := timed("thermal.Model.Step", len(caps), func() {
		for _, p := range powers {
			model.SetPower(p)
			model.Step(dt)
		}
	})
	b.set("thermal.step_ns", thermalNS)
	lanes := sim.DefaultBatchSize()
	models := make([]*thermal.Model, lanes)
	for l := range models {
		models[l] = tmpl.NewModel()
		models[l].SetNodeTemps(model.NodeTemps())
	}
	batch, err := thermal.NewBatch(models, dt)
	if err != nil {
		return err
	}
	batchNS := timed("thermal.BatchModel.Step", len(caps)*lanes, func() {
		for _, p := range powers {
			for _, m := range models {
				m.SetPower(p)
			}
			batch.Step()
		}
	})
	b.set("thermal.batch_step_ns_per_lane", batchNS)
	disc, err := tmpl.Discretization(dt)
	if err != nil {
		return err
	}
	var m, nsub int
	if _, err := fmt.Sscanf(disc.Mode(), "sparse-krylov(m=%d,nsub=%d)", &m, &nsub); err != nil {
		m, nsub = 0, 0 // dense packed: no Krylov basis
	}
	b.set("thermal.krylov_m", float64(m))
	b.set("thermal.krylov_nsub", float64(nsub))

	// Cold builds of the same template and discretization.
	s := time.Now()
	fresh, err := thermal.NewTemplate(fp, cfg.Thermal)
	if err != nil {
		return err
	}
	mid := time.Now()
	if _, err := fresh.Discretization(dt); err != nil {
		return err
	}
	e := time.Now()
	b.tr.record(parent, 0, "thermal.NewTemplate", s, mid, 0)
	b.tr.record(parent, 0, "thermal.Template.Discretization", mid, e, 0)
	b.set("thermal.template_ms", ms(mid.Sub(s)))
	b.set("thermal.discretize_ms", ms(e.Sub(mid)))

	// sensor and core: distributed DVFS reads every core's hotspots
	// through the bank, so the sensor time is a part of the decide time.
	bank, err := sensor.CoreHotspots(fp)
	if err != nil {
		return err
	}
	var tick int64
	sensorNS := timed("sensor.Bank.HottestForCore", len(caps), func() {
		for _, cp := range caps {
			tick++
			for core := 0; core < nCores; core++ {
				bank.HottestForCore(core, cp.temps, tick)
			}
		}
	})
	b.set("sensor.hottest_ns", sensorNS)
	dvfs, err := core.NewDVFS(cfg.Policy, core.Distributed, bank, nCores)
	if err != nil {
		return err
	}
	dvfsNS := timed("core.DVFSThrottler.Decide", len(caps), func() {
		for _, cp := range caps {
			tick++
			dvfs.Decide(units.Seconds(tick)*dt, tick, cp.temps)
		}
	})
	b.set("core.dvfs_decide_ns", dvfsNS)
	stopgo, err := core.NewStopGo(cfg.Policy, core.Distributed, bank, nCores)
	if err != nil {
		return err
	}
	b.set("core.stopgo_decide_ns", timed("core.StopGoThrottler.Decide", len(caps), func() {
		for _, cp := range caps {
			tick++
			stopgo.Decide(units.Seconds(tick)*dt, tick, cp.temps)
		}
	}))

	// migration: each controller stepped every tick on a clock that
	// keeps advancing, so epoch decisions arrive at their real rate.
	// loopErr keeps the first error a timed loop meets.
	var loopErr error
	stepper := func(ctl migration.Controller) (func(), error) {
		sched, err := newScheduler(procs, nCores)
		if err != nil {
			return nil, err
		}
		temps := make(units.TempVec, len(fp.Blocks))
		ctx := &migration.Context{Sched: sched, BlockTemps: temps, Throttler: dvfs, FP: fp, Bank: bank,
			DynScale: cfg.Power.DynamicScale}
		var n int64
		return func() {
			for _, cp := range caps {
				n++
				copy(temps, cp.temps)
				ctx.Now, ctx.Tick = units.Seconds(n)*dt, n
				if assign, ok := ctl.Step(ctx); ok {
					if _, err := sched.Apply(float64(ctx.Now), assign); err != nil && loopErr == nil {
						loopErr = fmt.Errorf("applying a migration decision: %w", err)
					}
				}
			}
		}, nil
	}
	counterStep, err := stepper(migration.NewCounterBased())
	if err != nil {
		return err
	}
	b.set("migration.counter_step_ns", timed("migration.CounterBased.Step", len(caps), counterStep))
	sensorStep, err := stepper(migration.NewSensorBased(len(procs), nCores))
	if err != nil {
		return err
	}
	migNS := timed("migration.SensorBased.Step", len(caps), sensorStep)
	b.set("migration.sensor_step_ns", migNS)

	// osched: one fairness rotation of a timeshared population (the
	// paper chip runs 3:2 oversubscribed here, as the grid cells do).
	pop := append([]string(nil), procs...)
	for pool := workload.Benchmarks(); len(pop) < nCores+nCores/2; {
		pop = append(pop, pool[len(pop)%len(pool)])
	}
	rot, err := osched.NewTimeshared(pop, nCores, 0)
	if err != nil {
		return err
	}
	var now float64
	rotationNS := timed("osched.Scheduler.Rotation", 1, func() {
		now += osched.DefaultTimeslice
		next := rot.RotationAssignment(now)
		if _, err := rot.Apply(now, next); err != nil && loopErr == nil {
			loopErr = fmt.Errorf("applying a rotation: %w", err)
		}
		rot.MarkRotation(now)
	})
	if loopErr != nil {
		return loopErr
	}
	b.set("osched.rotation_us", rotationNS/1e3)

	// Shares of the measured tick. The representative cell runs
	// distributed DVFS with sensor-based migration, so those are the
	// controller calls a tick makes; osched pays a rotation on the
	// fraction of ticks that rotate.
	parts := map[string]float64{
		"thermal":   thermalNS,
		"power":     powerNS,
		"core":      dvfsNS - sensorNS,
		"sensor":    sensorNS,
		"migration": migNS,
		"osched":    rotationNS * rotationsPerTick,
		"trace":     traceNS,
	}
	other := tickNS
	for _, v := range parts {
		other -= v
	}
	parts["other"] = other
	b.set("sim.other_ns", other)
	for name, v := range parts {
		b.set("sim.share."+name, v/tickNS)
	}
	b.note("tick breakdown at N=%d (%d thermal nodes, %s): tick %.0f ns, thermal %.0f, power %.0f, core %.0f, sensor %.0f, migration %.0f, osched %.0f, trace %.0f, other %.0f",
		nCores, tmpl.NumNodes(), disc.Mode(), tickNS, thermalNS, powerNS, dvfsNS-sensorNS, sensorNS, migNS,
		rotationNS*rotationsPerTick, traceNS, other)
	return nil
}

// newScheduler builds the OS model the way the simulator does: a plain
// scheduler when processes match cores, a timeshared one otherwise.
func newScheduler(procs []string, nCores int) (*osched.Scheduler, error) {
	if len(procs) == nCores {
		return osched.NewScheduler(procs), nil
	}
	return osched.NewTimeshared(procs, nCores, 0)
}

// blockActivity is the per-block activity of one captured tick: each
// core's blocks take the sample of the process it runs, and shared
// blocks average the cores' demand.
func blockActivity(fp *floorplan.Floorplan, cp captured, procs []string, traces map[string]*trace.Trace) []float64 {
	act := make([]float64, len(fp.Blocks))
	nCores := len(cp.assign)
	for i, blk := range fp.Blocks {
		if blk.Core >= 0 {
			s := traces[procs[cp.assign[blk.Core]]].At(cp.tick)
			act[i] = s.ActivityFor(blk.Kind)
			continue
		}
		for c := 0; c < nCores; c++ {
			act[i] += traces[procs[cp.assign[c]]].At(cp.tick).ActivityFor(blk.Kind) / float64(nCores)
		}
	}
	return act
}
