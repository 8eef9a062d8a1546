package migration

import (
	"math/rand"
	"testing"

	"multitherm/internal/control"
	"multitherm/internal/core"
	"multitherm/internal/floorplan"
	"multitherm/internal/osched"
	"multitherm/internal/sensor"
	"multitherm/internal/units"
)

// stubThrottler provides settable trend data.
type stubThrottler struct {
	scales []units.ScaleFactor
	resets int
}

var _ core.Throttler = (*stubThrottler)(nil)

func (s *stubThrottler) Name() string { return "stub" }
func (s *stubThrottler) Decide(units.Seconds, int64, units.TempVec) []core.CoreCommand {
	return nil
}
func (s *stubThrottler) Trend(coreID int) control.TrendReport {
	return control.TrendReport{AvgScale: s.scales[coreID], Samples: 10}
}
func (s *stubThrottler) ResetTrend(int)      { s.resets++ }
func (s *stubThrottler) NotifyMigration(int) {}

type fixture struct {
	fp    *floorplan.Floorplan
	bank  *sensor.Bank
	sched *osched.Scheduler
	th    *stubThrottler
	temps units.TempVec
}

func newFixture(t testing.TB) *fixture {
	t.Helper()
	fp := floorplan.CMP4()
	bank, err := sensor.CoreHotspots(fp)
	if err != nil {
		t.Fatal(err)
	}
	for i := range bank.Sensors {
		bank.Sensors[i].Quantization = 0
	}
	f := &fixture{
		fp:    fp,
		bank:  bank,
		sched: osched.NewScheduler([]string{"gzip", "twolf", "ammp", "lucas"}),
		th:    &stubThrottler{scales: []units.ScaleFactor{1, 1, 1, 1}},
		temps: make(units.TempVec, len(fp.Blocks)),
	}
	for i := range f.temps {
		f.temps[i] = 70
	}
	return f
}

func (f *fixture) setBlock(name string, temp float64) {
	idx := f.fp.BlockIndex(name)
	if idx < 0 {
		panic("unknown block " + name)
	}
	f.temps[idx] = temp
}

func (f *fixture) ctx(now float64, tick int64) *Context {
	return &Context{
		Now: units.Seconds(now), Tick: tick,
		Sched: f.sched, BlockTemps: f.temps,
		Throttler: f.th, FP: f.fp, Bank: f.bank,
		DynScale: func(s units.ScaleFactor) float64 { return float64(s * s * s) },
	}
}

// setCounters gives process p a counter window with the given register
// intensities.
func (f *fixture) setCounters(p int, intI, intF float64) {
	proc := f.sched.Process(p)
	proc.Window = osched.Counters{}
	proc.Account(1e-3, osched.Counters{
		AdjCycles:   1000,
		IntRFAccess: intI * 1000,
		FPRFAccess:  intF * 1000,
	})
}

func TestReadHotspotsIdentifiesCritical(t *testing.T) {
	f := newFixture(t)
	f.setBlock("c0_iregfile", 83)
	f.setBlock("c0_fpregfile", 76)
	f.setBlock("c1_fpregfile", 82)
	f.setBlock("c1_iregfile", 78)
	hs := readHotspots(f.ctx(0, 0))
	if hs[0].critical != floorplan.KindIntRegFile {
		t.Errorf("core 0 critical = %v, want int regfile", hs[0].critical)
	}
	if hs[0].imbalance != 7 {
		t.Errorf("core 0 imbalance = %v, want 7", hs[0].imbalance)
	}
	if hs[1].critical != floorplan.KindFPRegFile {
		t.Errorf("core 1 critical = %v, want fp regfile", hs[1].critical)
	}
}

// TestReadCoreRegFilesMatchesScan checks the indexed per-core read
// against the full-bank scan it replaced, on the 16x16 grid's hotspot
// bank with noisy sensors and random temperatures, and on a CMP4 bank
// whose cores interleave and whose core 2 carries a second
// integer-register-file sensor, where the later reading must win.
func TestReadCoreRegFilesMatchesScan(t *testing.T) {
	scan := func(ctx *Context, core int) (tInt, tFP float64) {
		for i := range ctx.Bank.Sensors {
			s := &ctx.Bank.Sensors[i]
			if s.Core != core {
				continue
			}
			v := float64(s.Read(ctx.BlockTemps, ctx.Tick))
			switch ctx.FP.Blocks[s.Block].Kind {
			case floorplan.KindIntRegFile:
				tInt = v
			case floorplan.KindFPRegFile:
				tFP = v
			}
		}
		return tInt, tFP
	}
	grid, err := floorplan.Grid(floorplan.GridSpec{Rows: 16, Cols: 16})
	if err != nil {
		t.Fatal(err)
	}
	gridBank, err := sensor.CoreHotspots(grid)
	if err != nil {
		t.Fatal(err)
	}
	for i := range gridBank.Sensors {
		gridBank.Sensors[i].NoiseAmplitude = 0.5
	}
	cmp := floorplan.CMP4()
	cmpBank, err := sensor.CoreHotspots(cmp)
	if err != nil {
		t.Fatal(err)
	}
	s := cmpBank.Sensors
	s[1], s[2], s[5], s[6] = s[2], s[1], s[6], s[5] // cores 0 1 0 1 2 3 2 3
	cmpBank.Sensors = append(s, sensor.Sensor{Block: cmp.FindCoreBlock(2, floorplan.KindIntRegFile), Core: 2, Offset: 3})

	rng := rand.New(rand.NewSource(17))
	for _, tc := range []struct {
		fp   *floorplan.Floorplan
		bank *sensor.Bank
	}{{grid, gridBank}, {cmp, cmpBank}} {
		ctx := &Context{FP: tc.fp, Bank: tc.bank}
		nCores := tc.fp.NumCores()
		for tick := int64(0); tick < 8; tick++ {
			temps := make(units.TempVec, len(tc.fp.Blocks))
			for i := range temps {
				temps[i] = 60 + 30*rng.Float64()
			}
			ctx.BlockTemps, ctx.Tick = temps, tick
			for c := 0; c < nCores; c++ {
				gotInt, gotFP := readCoreRegFiles(ctx, c)
				wantInt, wantFP := scan(ctx, c)
				if gotInt != wantInt || gotFP != wantFP {
					t.Fatalf("%s core %d tick %d: indexed (%v, %v), scan (%v, %v)",
						tc.fp.Name, c, tick, gotInt, gotFP, wantInt, wantFP)
				}
			}
		}
	}
}

func TestCounterBasedSwapsComplementaryThreads(t *testing.T) {
	f := newFixture(t)
	// Core 0 runs proc 0 (int-hot), core 2 runs proc 2 (fp-hot); their
	// counters say proc 0 is int-intense and proc 2 fp-intense. The
	// matching should send the fp-intense thread to the int-hot core
	// and vice versa.
	f.setBlock("c0_iregfile", 84)
	f.setBlock("c0_fpregfile", 74)
	f.setBlock("c2_fpregfile", 84)
	f.setBlock("c2_iregfile", 74)
	f.setCounters(0, 0.9, 0.05) // gzip: integer monster
	f.setCounters(1, 0.5, 0.10)
	f.setCounters(2, 0.1, 0.85) // ammp: fp monster
	f.setCounters(3, 0.3, 0.60)

	cb := NewCounterBased()
	assign, decided := cb.Step(f.ctx(0, 0))
	if !decided {
		t.Fatal("no decision on first eligible step")
	}
	// Core 0 (int-hot, imbalance 10) must get the least int-intense
	// thread: proc 2. Core 2 (fp-hot) must get the least fp-intense
	// remaining: proc 0.
	if assign[0] != 2 {
		t.Errorf("core 0 assigned proc %d, want 2 (least int-intense)", assign[0])
	}
	if assign[2] != 0 {
		t.Errorf("core 2 assigned proc %d, want 0 (least fp-intense)", assign[2])
	}
	if cb.Decisions() != 1 {
		t.Errorf("decisions = %d", cb.Decisions())
	}
}

func TestCounterBasedRespectsEpoch(t *testing.T) {
	f := newFixture(t)
	cb := NewCounterBased()
	if _, decided := cb.Step(f.ctx(0, 0)); !decided {
		t.Fatal("first decision blocked")
	}
	if _, err := f.sched.Apply(0, f.sched.Assignment()); err != nil {
		t.Fatal(err)
	}
	if _, decided := cb.Step(f.ctx(5e-3, 180)); decided {
		t.Error("decision inside the 10 ms epoch")
	}
}

func TestCounterBasedTriggerNeedsTwoChangedCriticals(t *testing.T) {
	f := newFixture(t)
	cb := NewCounterBased()
	// Prime the tracker.
	f.setBlock("c0_iregfile", 80)
	f.setBlock("c1_iregfile", 80)
	if _, decided := cb.Step(f.ctx(0, 0)); !decided {
		t.Fatal("priming decision blocked")
	}
	// One core flips critical hotspot: not enough.
	f.setBlock("c0_iregfile", 70)
	f.setBlock("c0_fpregfile", 82)
	if _, decided := cb.Step(f.ctx(20e-3, 720)); decided {
		t.Error("decision with only one changed critical")
	}
	// Second core flips: now it fires.
	f.setBlock("c1_iregfile", 70)
	f.setBlock("c1_fpregfile", 82)
	if _, decided := cb.Step(f.ctx(40e-3, 1440)); !decided {
		t.Error("decision missing with two changed criticals")
	}
}

func TestDecideAssignmentIsPermutation(t *testing.T) {
	f := newFixture(t)
	f.setCounters(0, 0.9, 0.1)
	f.setCounters(1, 0.8, 0.2)
	f.setCounters(2, 0.2, 0.8)
	f.setCounters(3, 0.1, 0.9)
	ctx := f.ctx(0, 0)
	hs := readHotspots(ctx)
	assign := decideAssignment(ctx, hs, func(p int, k floorplan.UnitKind) float64 {
		w := f.sched.Process(p).Window
		if k == floorplan.KindFPRegFile {
			return w.FPIntensity()
		}
		return w.IntIntensity()
	}, counterIntensityScale, nil)
	seen := map[int]bool{}
	for _, p := range assign {
		if seen[p] {
			t.Fatalf("assignment %v is not a permutation", assign)
		}
		seen[p] = true
	}
}

func TestDecideAssignmentPrefersIncumbentOnTies(t *testing.T) {
	f := newFixture(t)
	ctx := f.ctx(0, 0)
	hs := readHotspots(ctx)
	assign := decideAssignment(ctx, hs, func(int, floorplan.UnitKind) float64 { return 0.5 }, counterIntensityScale, nil)
	for c, p := range assign {
		if p != c {
			t.Errorf("tie produced gratuitous migration: core %d -> proc %d", c, p)
		}
	}
}

func TestSensorBasedProfilesUntilCovered(t *testing.T) {
	f := newFixture(t)
	sb := NewSensorBased(4, 4)
	now := 0.0
	rotations := 0
	for i := 0; i < 10 && !sb.covered(); i++ {
		assign, decided := sb.Step(f.ctx(now, int64(i)))
		if decided {
			if _, err := f.sched.Apply(now, assign); err != nil {
				t.Fatal(err)
			}
			rotations++
		}
		now += osched.DefaultMigrationEpoch
	}
	if !sb.covered() {
		t.Fatal("table never covered after 10 epochs")
	}
	// A single rotation gives every core a second profiled thread (two
	// grid diagonals), so only 1–3 profiling moves are needed; any
	// further decided steps come from the post-coverage decision path.
	if sb.ProfilingMoves() < 1 || sb.ProfilingMoves() > 3 {
		t.Errorf("profiling moves = %d, want 1..3", sb.ProfilingMoves())
	}
	if rotations < sb.ProfilingMoves() {
		t.Errorf("applied decisions %d fewer than profiling moves %d", rotations, sb.ProfilingMoves())
	}
}

func TestSensorBasedEstimatesComplementaryIntensities(t *testing.T) {
	f := newFixture(t)
	sb := NewSensorBased(4, 4)
	// Proc p heats IRF when p∈{0,1}, FPRF when p∈{2,3}, with magnitude
	// differences. Simulate epochs with the thread placements rotating,
	// setting block temps according to which thread runs where.
	heatInt := []float64{8, 5, 1, 2}
	heatFP := []float64{1, 2, 8, 5}
	now := 0.0
	for epoch := 0; epoch < 8; epoch++ {
		for c := 0; c < 4; c++ {
			p := f.sched.ProcessOn(c).ID
			f.setBlock(f.fp.Blocks[f.fp.FindCoreBlock(c, floorplan.KindIntRegFile)].Name, 70+heatInt[p])
			f.setBlock(f.fp.Blocks[f.fp.FindCoreBlock(c, floorplan.KindFPRegFile)].Name, 70+heatFP[p])
		}
		assign, decided := sb.Step(f.ctx(now, int64(epoch)))
		if decided {
			if _, err := f.sched.Apply(now, assign); err != nil {
				t.Fatal(err)
			}
		}
		now += osched.DefaultMigrationEpoch
	}
	intI, intF := sb.estimate()
	// Ordering must match the injected heats.
	if !(intI[0] > intI[1] && intI[1] > intI[3] && intI[3] > intI[2]) {
		t.Errorf("int intensity ordering wrong: %v (heat %v)", intI, heatInt)
	}
	if !(intF[2] > intF[3] && intF[3] > intF[1] && intF[1] > intF[0]) {
		t.Errorf("fp intensity ordering wrong: %v (heat %v)", intF, heatFP)
	}
}

func TestSensorBasedScalesByRecordedFrequency(t *testing.T) {
	// A thread observed at half speed must be credited with ~8× the
	// apparent pressure (cubic rescale to full-speed equivalent).
	f := newFixture(t)
	sb := NewSensorBased(4, 4)
	f.th.scales = []units.ScaleFactor{0.5, 1, 1, 1}
	f.setBlock("c0_iregfile", 74) // +4 over the 70 mean-ish
	sb.record(f.ctx(0, 0))
	e00 := sb.table[0][0]
	if !e00.valid {
		t.Fatal("no entry recorded")
	}
	f2 := newFixture(t)
	sb2 := NewSensorBased(4, 4)
	f2.setBlock("c0_iregfile", 74)
	sb2.record(f2.ctx(0, 0))
	full := sb2.table[0][0]
	ratio := e00.pInt / full.pInt
	if ratio < 6 || ratio > 10 {
		t.Errorf("half-speed pressure rescale ratio = %v, want ≈8 (cubic)", ratio)
	}
}

func TestSensorBasedStepEpochGate(t *testing.T) {
	f := newFixture(t)
	sb := NewSensorBased(4, 4)
	if _, decided := sb.Step(f.ctx(0, 0)); !decided {
		t.Fatal("first profiling step blocked")
	}
	if _, err := f.sched.Apply(0, f.sched.Assignment()); err != nil {
		t.Fatal(err)
	}
	if _, decided := sb.Step(f.ctx(1e-3, 36)); decided {
		t.Error("step inside epoch not gated")
	}
}

func TestControllerNames(t *testing.T) {
	if NewCounterBased().Name() != "counter-based migration" {
		t.Error("counter name")
	}
	if NewSensorBased(4, 4).Name() != "sensor-based migration" {
		t.Error("sensor name")
	}
}
