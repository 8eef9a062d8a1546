package power

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"multitherm/internal/floorplan"
	"multitherm/internal/units"
)

func newCalc(t testing.TB) *Calculator {
	t.Helper()
	c, err := NewCalculator(floorplan.CMP4(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bads := []func(*Config){
		func(c *Config) { c.VMax = 0 },
		func(c *Config) { c.SMin = 0 },
		func(c *Config) { c.SMin = 1.5 },
		func(c *Config) { c.VFloor = 2 },
		func(c *Config) { c.UnitDynamic = nil },
		func(c *Config) { c.LeakageBeta = 0 },
		func(c *Config) { c.StallDynFraction = -0.1 },
	}
	for i, mutate := range bads {
		c := DefaultConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestCubicDynamicScaling(t *testing.T) {
	// With the default proportional voltage curve, dynamic power must
	// follow the paper's cubic relation exactly.
	c := DefaultConfig()
	for _, s := range []units.ScaleFactor{0.2, 0.5, 0.72, 1.0} {
		want := float64(s * s * s)
		if got := c.DynamicScale(s); math.Abs(got-want) > 1e-12 {
			t.Errorf("DynamicScale(%v) = %v, want %v (cubic)", s, got, want)
		}
	}
}

func TestVoltageFloorCurve(t *testing.T) {
	c := DefaultConfig()
	c.VFloor = 0.7
	if v := c.VoltageAt(1); v != 1.0 {
		t.Errorf("V(1) = %v, want VMax", v)
	}
	if v := c.VoltageAt(0.2); v != 0.7 {
		t.Errorf("V(SMin) = %v, want VFloor", v)
	}
	mid := c.VoltageAt(0.6)
	if mid <= 0.7 || mid >= 1.0 {
		t.Errorf("V(0.6) = %v, want interior value", mid)
	}
	// Dynamic scale with a floor decays slower than the pure cubic.
	if c.DynamicScale(0.5) <= 0.125 {
		t.Errorf("floored DynamicScale(0.5) = %v, want > cubic 0.125", c.DynamicScale(0.5))
	}
}

func TestVoltageClampsOutOfRange(t *testing.T) {
	c := DefaultConfig()
	if c.VoltageAt(0.05) != c.VoltageAt(c.SMin) {
		t.Error("voltage below SMin not clamped")
	}
	if c.VoltageAt(1.5) != c.VMax {
		t.Error("voltage above 1 not clamped")
	}
}

func TestLeakageDoublesOverBetaBand(t *testing.T) {
	c := DefaultConfig()
	t0 := c.LeakageT0
	dT := math.Ln2 / c.LeakageBeta
	r := c.LeakageScale(t0+units.Celsius(dT), 1) / c.LeakageScale(t0, 1)
	if math.Abs(r-2) > 1e-9 {
		t.Errorf("leakage ratio over doubling band = %v, want 2", r)
	}
}

func TestLeakageScalesWithVoltage(t *testing.T) {
	c := DefaultConfig()
	full := c.LeakageScale(85, 1.0)
	slow := c.LeakageScale(85, 0.5)
	if slow >= full {
		t.Error("leakage should drop with voltage")
	}
	if math.Abs(slow/full-0.5) > 1e-9 {
		t.Errorf("leakage voltage factor = %v, want 0.5 for proportional curve", slow/full)
	}
}

func TestBlockPowerFullSpeed(t *testing.T) {
	calc := newCalc(t)
	fp := floorplan.CMP4()
	nb := len(fp.Blocks)
	activity := make([]float64, nb)
	temps := make([]float64, nb)
	for i := range activity {
		activity[i] = 1
		temps[i] = float64(calc.Config().LeakageT0)
	}
	cores := []CoreState{{Scale: 1}, {Scale: 1}, {Scale: 1}, {Scale: 1}}
	p := calc.BlockPower(nil, activity, cores, temps)
	var total float64
	for i, w := range p {
		want := float64(calc.MaxDynamic(i) + calc.BaseLeakage(i))
		if math.Abs(w-want) > 1e-9 {
			t.Errorf("block %d power %v, want %v", i, w, want)
		}
		total += w
	}
	wantTotal := float64(calc.MaxChipDynamic() + calc.ChipLeakageAt(calc.Config().LeakageT0, 1))
	if math.Abs(total-wantTotal) > 1e-6 {
		t.Errorf("total %v, want %v", total, wantTotal)
	}
}

func TestBlockPowerStalledCore(t *testing.T) {
	calc := newCalc(t)
	fp := floorplan.CMP4()
	nb := len(fp.Blocks)
	activity := make([]float64, nb)
	temps := make([]float64, nb)
	for i := range activity {
		activity[i] = 1
		temps[i] = 85
	}
	cores := []CoreState{{Scale: 1, Stalled: true}, {Scale: 1}, {Scale: 1}, {Scale: 1}}
	p := calc.BlockPower(nil, activity, cores, temps)
	for i, b := range fp.Blocks {
		if b.Core == 0 {
			want := float64(calc.MaxDynamic(i))*calc.Config().StallDynFraction + float64(calc.BaseLeakage(i))
			if math.Abs(p[i]-want) > 1e-9 {
				t.Errorf("stalled block %s power %v, want %v", b.Name, p[i], want)
			}
		}
	}
	// Shared L2 keeps running while any core is live.
	l2 := fp.BlockIndex("l2")
	if p[l2] <= float64(calc.BaseLeakage(l2)) {
		t.Error("L2 dynamic power gated although cores are live")
	}
}

func TestBlockPowerAllStalledGatesShared(t *testing.T) {
	calc := newCalc(t)
	fp := floorplan.CMP4()
	nb := len(fp.Blocks)
	activity := make([]float64, nb)
	temps := make([]float64, nb)
	for i := range activity {
		activity[i] = 1
		temps[i] = 85
	}
	cores := []CoreState{
		{Scale: 1, Stalled: true}, {Scale: 1, Stalled: true},
		{Scale: 1, Stalled: true}, {Scale: 1, Stalled: true},
	}
	p := calc.BlockPower(nil, activity, cores, temps)
	l2 := fp.BlockIndex("l2")
	want := float64(calc.MaxDynamic(l2))*calc.Config().StallDynFraction + float64(calc.BaseLeakage(l2))
	if math.Abs(p[l2]-want) > 1e-9 {
		t.Errorf("all-stalled L2 power %v, want gated %v", p[l2], want)
	}
}

func TestBlockPowerScalesWithDVFS(t *testing.T) {
	calc := newCalc(t)
	fp := floorplan.CMP4()
	nb := len(fp.Blocks)
	activity := make([]float64, nb)
	temps := make([]float64, nb)
	for i := range activity {
		activity[i] = 0.8
		temps[i] = 85
	}
	full := calc.BlockPower(nil, activity, []CoreState{{Scale: 1}, {Scale: 1}, {Scale: 1}, {Scale: 1}}, temps)
	half := calc.BlockPower(nil, activity, []CoreState{{Scale: 0.5}, {Scale: 1}, {Scale: 1}, {Scale: 1}}, temps)
	for i, b := range fp.Blocks {
		if b.Core == 0 {
			wantDyn := (full[i] - float64(calc.BaseLeakage(i))) * 0.125
			wantLeak := float64(calc.BaseLeakage(i)) * 0.5 // voltage factor
			if math.Abs(half[i]-(wantDyn+wantLeak)) > 1e-9 {
				t.Errorf("block %s at half speed: %v, want %v", b.Name, half[i], wantDyn+wantLeak)
			}
		} else if half[i] != full[i] {
			t.Errorf("block %s changed power though its core did not scale", b.Name)
		}
	}
}

// blockPowerOracle is BlockPower's loop before the per-core index: one
// pass over the floorplan, each block working out its core's operating
// point, dynamic scale and voltage itself.
func blockPowerOracle(c *Calculator, activity []float64, cores []CoreState, temps units.TempVec) units.PowerVec {
	dst := units.MakePowerVec(len(c.fp.Blocks))
	allStalled := true
	for _, cs := range cores {
		if !cs.Stalled {
			allStalled = false
			break
		}
	}
	for i, b := range c.fp.Blocks {
		scale, stalled := units.ScaleFactor(1), allStalled
		if b.Core != floorplan.SharedCore && b.Core < len(cores) {
			scale = cores[b.Core].Scale
			stalled = cores[b.Core].Stalled
		}
		dyn := c.maxDyn[i] * activity[i] * c.cfg.DynamicScale(scale)
		if stalled {
			dyn = c.maxDyn[i] * activity[i] * c.cfg.StallDynFraction
			scale = 1
		}
		leak := c.leak0[i] * c.cfg.LeakageScale(units.Celsius(temps[i]), scale)
		dst[i] = dyn + leak
	}
	return dst
}

// TestBlockPowerMatchesPerBlockOracle pins the per-core BlockPower to
// the per-block loop bit for bit, over random states on CMP4 and the
// 16x16 grid, with and without a voltage floor. The states cover
// stalled cores, every core stalled, scales at SMin and at 1, and cores
// slices shorter than the core count — down to empty — whose missing
// cores run like the shared blocks. BlockPower must not allocate into
// a caller's dst.
func TestBlockPowerMatchesPerBlockOracle(t *testing.T) {
	grid, err := floorplan.Grid(floorplan.GridSpec{Rows: 16, Cols: 16})
	if err != nil {
		t.Fatal(err)
	}
	floored := DefaultConfig()
	floored.VFloor = 0.7
	rng := rand.New(rand.NewSource(11))
	for _, fp := range []*floorplan.Floorplan{floorplan.CMP4(), grid} {
		for _, cfg := range []Config{DefaultConfig(), floored} {
			calc, err := NewCalculator(fp, cfg)
			if err != nil {
				t.Fatal(err)
			}
			nb, nc := len(fp.Blocks), fp.NumCores()
			activity := make([]float64, nb)
			temps := make(units.TempVec, nb)
			dst := units.MakePowerVec(nb)
			var cores []CoreState
			for trial := 0; trial < 36; trial++ {
				for i := range activity {
					activity[i] = rng.Float64()
					temps[i] = 45 + 60*rng.Float64()
				}
				mode := trial % 6
				cores = make([]CoreState, []int{nc, nc, nc, nc, nc / 2, 0}[mode])
				for c := range cores {
					s := []units.ScaleFactor{cfg.SMin, 1, cfg.SMin + (1-cfg.SMin)*units.ScaleFactor(rng.Float64())}[rng.Intn(3)]
					cores[c] = CoreState{Scale: s, Stalled: mode == 3 || rng.Intn(4) == 0}
				}
				want := blockPowerOracle(calc, activity, cores, temps)
				got := calc.BlockPower(dst, activity, cores, temps)
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s VFloor %g trial %d block %d: BlockPower %v, per-block loop %v",
							fp.Name, cfg.VFloor, trial, i, got[i], want[i])
					}
				}
			}
			if allocs := testing.AllocsPerRun(20, func() {
				calc.BlockPower(dst, activity, cores, temps)
			}); allocs != 0 {
				t.Errorf("%s: BlockPower allocates %v times with a non-nil dst", fp.Name, allocs)
			}
		}
	}
}

// TestBlockPowerMatchesOracleOutsideExpKernelDomain drives the leakage
// exponent β(T−T0) past ±708, where linalg.ExpInto hands elements back
// to math.Exp. A steep β of 12/°C over 0–200 °C spans exponents from
// −1020 to 1380, so the same 8-block chunks mix vector lanes with
// overflowing (+Inf W), denormal and zero leakage. BlockPower must still
// match the per-block oracle bit for bit.
func TestBlockPowerMatchesOracleOutsideExpKernelDomain(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LeakageBeta = 12
	fp := floorplan.CMP4()
	calc, err := NewCalculator(fp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	nb := len(fp.Blocks)
	activity := make([]float64, nb)
	temps := make(units.TempVec, nb)
	cores := []CoreState{{Scale: 1}, {Scale: 0.5}, {Scale: 1, Stalled: true}, {Scale: cfg.SMin}}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		for i := range temps {
			activity[i] = rng.Float64()
			temps[i] = 200 * rng.Float64()
		}
		want := blockPowerOracle(calc, activity, cores, temps)
		got := calc.BlockPower(nil, activity, cores, temps)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("trial %d block %d at %.3f °C: BlockPower %v, per-block loop %v",
					trial, i, temps[i], got[i], want[i])
			}
		}
	}
}

func TestBlockPowerMonotoneInScaleProperty(t *testing.T) {
	calc := newCalc(t)
	fp := floorplan.CMP4()
	nb := len(fp.Blocks)
	activity := make([]float64, nb)
	temps := make([]float64, nb)
	for i := range activity {
		activity[i] = 0.5
		temps[i] = 80
	}
	f := func(s1, s2 float64) bool {
		a := units.ScaleFactor(0.2 + math.Mod(math.Abs(s1), 0.8))
		b := units.ScaleFactor(0.2 + math.Mod(math.Abs(s2), 0.8))
		if a > b {
			a, b = b, a
		}
		pa := calc.BlockPower(nil, activity, []CoreState{{Scale: a}, {Scale: a}, {Scale: a}, {Scale: a}}, temps)
		pb := calc.BlockPower(nil, activity, []CoreState{{Scale: b}, {Scale: b}, {Scale: b}, {Scale: b}}, temps)
		for i := range pa {
			if pa[i] > pb[i]+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestNewCalculatorRejectsUnknownKind(t *testing.T) {
	cfg := DefaultConfig()
	delete(cfg.UnitDynamic, floorplan.KindL2)
	if _, err := NewCalculator(floorplan.CMP4(), cfg); err == nil {
		t.Error("missing unit kind accepted")
	}
}

func TestCalibrationEnvelope(t *testing.T) {
	// The chip must be under genuine thermal duress: full-tilt power
	// high enough that unthrottled operation is unsustainable. Guard the
	// calibration: max dynamic (at activity 1.0 everywhere, including the
	// global duress multiplier — realistic workloads reach well under
	// half of this) 200–380 W, leakage at 85 °C 10–35 W.
	calc := newCalc(t)
	dyn := calc.MaxChipDynamic()
	if dyn < 200 || dyn > 380 {
		t.Errorf("max chip dynamic %v W outside calibration envelope", dyn)
	}
	leak := calc.ChipLeakageAt(85, 1)
	if leak < 10 || leak > 35 {
		t.Errorf("chip leakage at 85°C = %v W outside calibration envelope", leak)
	}
}

func TestGlobalDynamicScale(t *testing.T) {
	base := DefaultConfig()
	base.GlobalDynamicScale = 1.0
	scaled := DefaultConfig()
	scaled.GlobalDynamicScale = 2.0
	cb, err := NewCalculator(floorplan.CMP4(), base)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := NewCalculator(floorplan.CMP4(), scaled)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if math.Abs(float64(cs.MaxDynamic(i)-2*cb.MaxDynamic(i))) > 1e-12 {
			t.Errorf("block %d: scale not applied: %v vs %v", i, cs.MaxDynamic(i), cb.MaxDynamic(i))
		}
	}
	// Leakage is not affected by the dynamic multiplier.
	if cs.BaseLeakage(0) != cb.BaseLeakage(0) {
		t.Error("GlobalDynamicScale leaked into leakage")
	}
	bad := DefaultConfig()
	bad.GlobalDynamicScale = 9
	if err := bad.Validate(); err == nil {
		t.Error("absurd global scale accepted")
	}
}
