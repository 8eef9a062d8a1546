// Package power models per-block processor power (the PowerTimer role
// in the paper's toolflow, §3.1): dynamic power scaled by activity and
// by the DVFS operating point, plus temperature-dependent leakage power
// computed from the empirical exponential form the paper adopts from
// Heo, Barr & Asanović (§3.3). The paper's controllers assume the cubic
// relation P_dyn ∝ f·V² with V tracking f; that is this package's
// default voltage curve, with an optional realistic voltage floor for
// ablation studies.
package power

import (
	"fmt"
	"math"

	"multitherm/internal/floorplan"
	"multitherm/internal/linalg"
	"multitherm/internal/units"
)

// Config holds the electrical parameters of the power model.
type Config struct {
	// VMax is the nominal supply voltage (paper Table 3: 1.0 V).
	VMax float64
	// VFloor, if positive, is the lowest voltage the regulator can
	// reach; the voltage curve becomes linear from VFloor at SMin up to
	// VMax at scale 1. If zero, voltage tracks frequency proportionally
	// (V = VMax·s), which yields the paper's pure-cubic dynamic scaling.
	VFloor float64
	// SMin is the minimum frequency scale factor (paper: 0.2).
	SMin units.ScaleFactor

	// UnitDynamic maps unit kind to the block's maximum dynamic power
	// at full activity and nominal V/f.
	UnitDynamic map[floorplan.UnitKind]units.Watts

	// Leakage: P_leak = LeakagePerArea·area·(V/VMax)·e^{Beta·(T−T0)}.
	LeakagePerArea float64 // W/m² at T0 and VMax
	LeakageBeta    float64 // 1/°C
	LeakageT0      units.Celsius

	// StallDynFraction is the fraction of dynamic power still burned
	// while a core is clock-gated by stop-go (§2.3: state is maintained,
	// "much less dynamic power is wasted" — but not zero).
	StallDynFraction float64

	// GlobalDynamicScale multiplies every unit's dynamic power — the
	// overall thermal-duress calibration knob. Zero means 1.0.
	GlobalDynamicScale float64
}

// globalScale returns the effective global multiplier (zero value → 1).
func (c Config) globalScale() float64 {
	if c.GlobalDynamicScale == 0 {
		return 1
	}
	return c.GlobalDynamicScale
}

// DefaultConfig returns the calibrated power model for the paper's
// 90 nm, 1.0 V, 3.6 GHz four-core part.
func DefaultConfig() Config {
	return Config{
		VMax: 1.0,
		SMin: 0.2,
		UnitDynamic: map[floorplan.UnitKind]units.Watts{
			floorplan.KindFXU:        5.5,
			floorplan.KindIntRegFile: 6.5,
			floorplan.KindFPU:        5.5,
			floorplan.KindFPRegFile:  6.5,
			floorplan.KindLSU:        4.0,
			floorplan.KindBXU:        1.5,
			floorplan.KindBPred:      2.0,
			floorplan.KindL1I:        2.5,
			floorplan.KindL1D:        3.0,
			floorplan.KindRename:     2.5,
			floorplan.KindIssueQ:     3.0,
			floorplan.KindL2:         8.0,
			floorplan.KindOther:      0.5,
		},
		GlobalDynamicScale: 1.65,
		LeakagePerArea:     9.0e4,
		LeakageBeta:        0.017,
		LeakageT0:          85,
		StallDynFraction:   0.08,
	}
}

// Validate checks config consistency.
func (c Config) Validate() error {
	if c.VMax <= 0 {
		return fmt.Errorf("power: VMax must be positive")
	}
	if c.SMin <= 0 || c.SMin >= 1 {
		return fmt.Errorf("power: SMin %g outside (0,1)", c.SMin)
	}
	if c.VFloor < 0 || c.VFloor > c.VMax {
		return fmt.Errorf("power: VFloor %g outside [0, VMax]", c.VFloor)
	}
	if len(c.UnitDynamic) == 0 {
		return fmt.Errorf("power: no unit dynamic powers configured")
	}
	if c.LeakagePerArea < 0 || c.LeakageBeta <= 0 {
		return fmt.Errorf("power: bad leakage parameters")
	}
	if c.StallDynFraction < 0 || c.StallDynFraction > 1 {
		return fmt.Errorf("power: StallDynFraction %g outside [0,1]", c.StallDynFraction)
	}
	if c.GlobalDynamicScale < 0 || c.GlobalDynamicScale > 5 {
		return fmt.Errorf("power: GlobalDynamicScale %g outside [0,5]", c.GlobalDynamicScale)
	}
	return nil
}

// VoltageAt returns the supply voltage at frequency scale s ∈ [SMin, 1].
func (c Config) VoltageAt(s units.ScaleFactor) float64 {
	if s < c.SMin {
		s = c.SMin
	}
	if s > 1 {
		s = 1
	}
	if c.VFloor <= 0 {
		return c.VMax * float64(s)
	}
	// Linear from VFloor at SMin to VMax at 1.
	frac := float64((s - c.SMin) / (1 - c.SMin))
	return c.VFloor + (c.VMax-c.VFloor)*frac
}

// DynamicScale returns the dynamic-power multiplier at frequency scale
// s relative to full speed: f·V² normalized. With the default
// proportional voltage curve this is exactly s³ — the cubic relation the
// paper's migration controllers use to rescale counter and sensor data.
// The result is a dimensionless power multiplier, not a ScaleFactor.
func (c Config) DynamicScale(s units.ScaleFactor) float64 {
	v := c.VoltageAt(s) / c.VMax
	return float64(s) * v * v
}

// LeakageScale returns the leakage multiplier at temperature tempC and
// frequency scale s, relative to (T0, VMax). The result is a
// dimensionless power multiplier.
func (c Config) LeakageScale(tempC units.Celsius, s units.ScaleFactor) float64 {
	v := c.VoltageAt(s) / c.VMax
	return v * math.Exp(c.LeakageBeta*float64(tempC-c.LeakageT0))
}

// Calculator converts per-block activity factors into watts for a
// specific floorplan, applying DVFS scaling, stop-go gating, and
// temperature-dependent leakage.
type Calculator struct {
	cfg     Config
	fp      *floorplan.Floorplan
	maxDyn  []float64 // W at activity 1, full V/f, per block
	leak0   []float64 // W at T0, VMax, per block
	leakSum float64

	// coreBlocks[c] lists core c's blocks and sharedBlocks the blocks no
	// core owns, so BlockPower works out each operating point once.
	coreBlocks   [][]int
	sharedBlocks []int
}

// NewCalculator builds a Calculator for the floorplan.
func NewCalculator(fp *floorplan.Floorplan, cfg Config) (*Calculator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Calculator{cfg: cfg, fp: fp}
	c.maxDyn = make([]float64, len(fp.Blocks))
	c.leak0 = make([]float64, len(fp.Blocks))
	for i, b := range fp.Blocks {
		w, ok := cfg.UnitDynamic[b.Kind]
		if !ok {
			return nil, fmt.Errorf("power: no dynamic power configured for unit kind %v (block %s)", b.Kind, b.Name)
		}
		c.maxDyn[i] = float64(w) * cfg.globalScale()
		c.leak0[i] = cfg.LeakagePerArea * b.Area()
		c.leakSum += c.leak0[i]
	}
	c.coreBlocks, c.sharedBlocks = fp.BlocksByCore()
	return c, nil
}

// Config returns the calculator's configuration.
func (c *Calculator) Config() Config { return c.cfg }

// MaxDynamic returns block i's dynamic power at full activity and
// nominal V/f.
func (c *Calculator) MaxDynamic(i int) units.Watts { return units.Watts(c.maxDyn[i]) }

// BaseLeakage returns block i's leakage at T0 and VMax.
func (c *Calculator) BaseLeakage(i int) units.Watts { return units.Watts(c.leak0[i]) }

// CoreState describes one core's operating point for power assembly.
type CoreState struct {
	Scale   units.ScaleFactor // frequency scale factor in [SMin, 1]
	Stalled bool              // stop-go clock gate engaged
}

// BlockPower fills dst with per-block watts given:
//   - activity: per-block dynamic activity factor in [0,1] at full speed
//     (nominal power fraction, from the trace / µarch model),
//   - cores: operating state per core (indexed by core id; blocks owned
//     by SharedCore use full speed unless every core is stalled),
//   - temps: per-block temperatures for leakage feedback.
//
// dst may be nil, and must not alias activity or temps. The returned
// slice has one entry per block. The leakage exponentials run first, as
// one linalg.ExpInto pass over dst; blocks are then visited by owning
// core, so each core's dynamic scale and voltage are computed once per
// call.
//
//mtlint:zeroalloc
func (c *Calculator) BlockPower(dst units.PowerVec, activity []float64, cores []CoreState, temps units.TempVec) units.PowerVec {
	nb := len(c.fp.Blocks)
	if len(activity) != nb || len(temps) != nb {
		badLengths(len(activity), len(temps), nb)
	}
	if dst == nil {
		dst = newPowerVec(nb)
	}
	// Block i's leakage exponent β(T_i−T0), exponentiated in place;
	// blocksPower reads dst[i] back before overwriting it with watts.
	for i, t := range temps {
		dst[i] = c.cfg.LeakageBeta * float64(units.Celsius(t)-c.cfg.LeakageT0)
	}
	exps := dst[:nb].Raw()
	linalg.ExpInto(exps, exps)
	shared := CoreState{Scale: 1, Stalled: true}
	for _, cs := range cores {
		if !cs.Stalled {
			shared.Stalled = false
			break
		}
	}
	for core, blocks := range c.coreBlocks {
		cs := shared // a core with no state runs like the shared blocks
		if core < len(cores) {
			cs = cores[core]
		}
		c.blocksPower(dst, blocks, cs, activity)
	}
	c.blocksPower(dst, c.sharedBlocks, shared, activity)
	return dst
}

// blocksPower fills dst for blocks that share one operating point,
// reading each block's leakage exponential from dst first.
func (c *Calculator) blocksPower(dst units.PowerVec, blocks []int, cs CoreState, activity []float64) {
	// Clock-gated: voltage stays up, clocks stop, and leakage runs at
	// full voltage.
	dynScale, scale := c.cfg.StallDynFraction, units.ScaleFactor(1)
	if !cs.Stalled {
		dynScale, scale = c.cfg.DynamicScale(cs.Scale), cs.Scale
	}
	v := c.cfg.VoltageAt(scale) / c.cfg.VMax
	for _, i := range blocks {
		dyn := c.maxDyn[i] * activity[i] * dynScale
		leak := c.leak0[i] * (v * dst[i]) // LeakageScale's association
		dst[i] = dyn + leak
	}
}

// badLengths and newPowerVec live outside BlockPower so the formatting
// and the nil-dst allocation stay off the hot function's escape
// analysis.
//
//go:noinline
func badLengths(activity, temps, want int) {
	panic(fmt.Sprintf("power: activity/temps length %d/%d, want %d", activity, temps, want))
}

//go:noinline
func newPowerVec(n int) units.PowerVec { return units.MakePowerVec(n) }

// ChipLeakageAt returns total chip leakage if every block sat at the
// given temperature and scale — a calibration aid.
func (c *Calculator) ChipLeakageAt(tempC units.Celsius, s units.ScaleFactor) units.Watts {
	return units.Watts(c.leakSum * c.cfg.LeakageScale(tempC, s))
}

// MaxChipDynamic returns total chip dynamic power at activity 1
// everywhere and full V/f — an upper bound used in calibration.
func (c *Calculator) MaxChipDynamic() units.Watts {
	var sum float64
	for _, w := range c.maxDyn {
		sum += w
	}
	return units.Watts(sum)
}
