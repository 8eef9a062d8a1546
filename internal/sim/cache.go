package sim

import (
	"math"
	"strconv"
	"strings"

	"multitherm/internal/floorplan"
	"multitherm/internal/memo"
	"multitherm/internal/power"
	"multitherm/internal/thermal"
	"multitherm/internal/trace"
	"multitherm/internal/uarch"
	"multitherm/internal/units"
	"multitherm/internal/workload"
)

// This file holds the construction caches that make runners cheap to
// build in a parallel sweep. Both caches hold values that are
// strictly read-only after insertion — recorded traces (each runner
// walks a shared Trace through its own Cursor) and warmup temperature
// vectors (installed by copy) — so concurrently constructed runners
// share them through a memo.Map, looked up before the tick loop and
// never in it.

// traceKey identifies one recorded benchmark trace. uarch.Config is a
// flat comparable struct, so the key works directly as a map key.
type traceKey struct {
	uc    uarch.Config
	bench string
	n     int
}

var traceCache memo.Map[traceKey, *trace.Trace]

// recordedTrace returns the looping activity trace for a benchmark
// under a core configuration, recording it on first use. Traces are
// deterministic functions of (config, benchmark, length) and immutable
// once recorded, so every runner in a sweep shares one copy.
func recordedTrace(uc uarch.Config, bench string, n int) (*trace.Trace, error) {
	return traceCache.LoadOrStore(traceKey{uc: uc, bench: bench, n: n},
		func() (*trace.Trace, error) {
			prof, err := workload.Profile(bench)
			if err != nil {
				return nil, err
			}
			gen, err := uarch.NewGenerator(uc, prof)
			if err != nil {
				return nil, err
			}
			return trace.Record(gen, n)
		})
}

// powerKey is a comparable projection of power.Config: the scalar
// fields verbatim plus the UnitDynamic map spread into a fixed
// per-kind array (blocks only ever carry enum kinds, so the array
// captures every entry the calculator can read). Being a flat value
// type it hashes without formatting anything, unlike the old
// fmt.Sprintf("%+v") fingerprint, and cannot silently collide if a
// field's print format changes.
type powerKey struct {
	vMax, vFloor, sMin                 float64
	leakPerArea, leakBeta, leakT0      float64
	stallDynFraction, globalDynamicScl float64
	unitDynamic                        [floorplan.NumUnitKinds]float64
}

func powerFingerprint(c power.Config) powerKey {
	k := powerKey{
		vMax: c.VMax, vFloor: c.VFloor, sMin: float64(c.SMin),
		leakPerArea: c.LeakagePerArea, leakBeta: c.LeakageBeta, leakT0: float64(c.LeakageT0),
		stallDynFraction: c.StallDynFraction, globalDynamicScl: c.GlobalDynamicScale,
	}
	//mtlint:allow maprange scatter into a fixed array indexed by key; order-insensitive
	for kind, w := range c.UnitDynamic {
		if kind >= 0 && kind < floorplan.NumUnitKinds {
			k.unitDynamic[kind] = float64(w)
		}
	}
	return k
}

// warmupKey identifies one pre-warm steady state. Floorplans are
// memoized singletons, so pointer identity suffices; power.Config is
// projected into the comparable powerKey. caps folds in CoreMaxScale
// (bit-exact, one hex word per core), since heterogeneous frequency
// caps change the average warmup power.
type warmupKey struct {
	fp      *floorplan.Floorplan
	tp      thermal.Params
	uc      uarch.Config
	pw      powerKey
	benches string // the initial core assignment, in order
	caps    string
	nTrace  int
	target  float64 // warmup target temperature, °C
}

var warmupCache memo.Map[warmupKey, units.TempVec] // read-only node temps

func coreCapsFingerprint(caps []units.ScaleFactor) string {
	if len(caps) == 0 {
		return ""
	}
	var sb strings.Builder
	for _, v := range caps {
		sb.WriteString(strconv.FormatUint(math.Float64bits(float64(v)), 16))
		sb.WriteByte('\x1f')
	}
	return sb.String()
}

// initialTemps returns the pre-warmed full-node temperature vector for
// this runner's configuration: the steady state of the mix's average
// power, linearly scaled so the hottest die block starts at the warmup
// target. The two steady-state LU solves behind it dominate runner
// startup, and are identical for every run sharing (floorplan, thermal
// params, power config, core config, initial benchmarks, trace length,
// target) — a sweep over N policies recomputes them once, not N times.
// The returned slice is shared and must not be mutated.
func (r *Runner) initialTemps() (units.TempVec, error) {
	cfg := r.cfg
	nb := len(cfg.Floorplan.Blocks)
	target := cfg.Policy.ThresholdC - cfg.Policy.SetpointMarginC - cfg.WarmupMarginC
	key := warmupKey{
		fp:      cfg.Floorplan,
		tp:      cfg.Thermal,
		uc:      cfg.Uarch,
		pw:      powerFingerprint(cfg.Power),
		benches: strings.Join(r.benchNames[:r.nCores], "\x1f"),
		caps:    coreCapsFingerprint(cfg.CoreMaxScale),
		nTrace:  cfg.TraceIntervals,
		target:  float64(target),
	}
	return warmupCache.LoadOrStore(key, func() (units.TempVec, error) {
		// Linear-scale the average power so the hottest block starts at
		// the target (WarmupMarginC below the PI setpoint).
		avgPower := r.averageTracePower()
		warm, err := r.model.SteadyState(avgPower)
		if err != nil {
			return nil, err
		}
		maxWarm := warm[0]
		for _, v := range warm[:nb] {
			if v > maxWarm {
				maxWarm = v
			}
		}
		amb := float64(cfg.Thermal.Ambient)
		alpha := 1.0
		if maxWarm > amb {
			alpha = (float64(target) - amb) / (maxWarm - amb)
		}
		if alpha < 0 {
			alpha = 0
		}
		if alpha > 1 {
			alpha = 1
		}
		scaled := make(units.PowerVec, nb)
		for i, p := range avgPower {
			scaled[i] = p * alpha
		}
		return r.model.SteadyState(scaled)
	})
}
