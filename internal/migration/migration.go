// Package migration implements the outer control loop of Figure 1: the
// OS-level thread-migration policies that balance heat production
// across cores (§2.5, §6). Two mechanisms are provided, matching the
// paper's third taxonomy axis: counter-based migration, which estimates
// per-thread resource heat intensity from hardware performance counters
// (§6.1, Figure 4), and sensor-based migration, which profiles threads
// through the on-chip thermal sensors and the inner PI loop's recorded
// scaling factors, maintaining an OS-managed thread×core thermal-trend
// table (§6.3, Figure 6).
//
//mtlint:deterministic
package migration

import (
	"math"
	"sort"

	"multitherm/internal/core"
	"multitherm/internal/floorplan"
	"multitherm/internal/osched"
	"multitherm/internal/sensor"
	"multitherm/internal/units"
)

// Context is the OS-visible system state a migration controller acts
// on. The simulator assembles one per control tick.
type Context struct {
	Now  units.Seconds // absolute time on the simulation clock
	Tick int64         // control interval index

	Sched      *osched.Scheduler
	BlockTemps units.TempVec // die-block temperatures
	Throttler  core.Throttler
	FP         *floorplan.Floorplan
	Bank       *sensor.Bank // chip hotspot sensor bank

	// DynScale is the dynamic-power scaling relation (cubic in the
	// paper) used to rescale observations taken at reduced frequency
	// back to full-speed intensity (§6.1, §6.3). The result is a
	// dimensionless power multiplier, not another frequency scale.
	DynScale func(s units.ScaleFactor) float64
}

// Controller decides thread placements. Step is called every control
// interval; it returns a new core→process assignment and true when the
// controller wants a migration decision enacted.
type Controller interface {
	Name() string
	Step(ctx *Context) (assign []int, decided bool)
}

// coreHotspot summarizes one core's watched hotspots for the decision
// algorithm.
type coreHotspot struct {
	core      int
	critical  floorplan.UnitKind // hotter of the two register files
	imbalance float64            // T(critical) − T(secondary)
	critTemp  float64
	tInt, tFP float64 // sensor temperatures of the two register files
}

// readHotspots extracts per-core hotspot state from the sensor bank.
func readHotspots(ctx *Context) []coreHotspot {
	n := ctx.Sched.NumCores()
	out := make([]coreHotspot, n)
	for c := 0; c < n; c++ {
		tInt, tFP := readCoreRegFiles(ctx, c)
		h := coreHotspot{core: c, tInt: tInt, tFP: tFP}
		if tInt >= tFP {
			h.critical, h.critTemp, h.imbalance = floorplan.KindIntRegFile, tInt, tInt-tFP
		} else {
			h.critical, h.critTemp, h.imbalance = floorplan.KindFPRegFile, tFP, tFP-tInt
		}
		out[c] = h
	}
	return out
}

// readCoreRegFiles reads the two register-file sensors of a core
// straight off the shared bank, through its per-core index, rather than
// allocating a ForCore sub-bank or walking every core's sensors.
func readCoreRegFiles(ctx *Context, core int) (tInt, tFP float64) {
	for _, i := range ctx.Bank.CoreSensors(core) {
		s := &ctx.Bank.Sensors[i]
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

// decideAssignment implements the matching algorithm of Figure 4:
// cores in order of thermal urgency each take the remaining process
// least able to heat their constrained hotspots, and a migration is
// only done where the assignment differs. Two refinements over the bare
// pseudocode (both discussed in DESIGN.md):
//
//   - The candidate cost considers both watched hotspots — cost(c,p) =
//     max over RF of (T_rf(c) + α·intensity(p, rf)) — which reduces to
//     "least intense for the critical hotspot" when one hotspot
//     dominates, but avoids placing a chip-wide-hot thread on a core
//     whose two hotspots happen to be balanced.
//
// A migration clears any in-progress stop-go stall on the receiving
// core (core.StopGoThrottler.NotifyMigration): the context switch is a
// thermal response in its own right, and the trip check re-protects the
// silicon on the next control interval.
//
// intensity(proc, kind) returns the estimated full-speed heat intensity
// of the process on the given register file; intensityScale (α)
// converts it to the temperature scale of the sensor readings.
// throttled marks cores whose inner-loop control was active in the last
// window: their incumbent thread pays an eviction bias so heat sources
// rotate off the silicon they just heated instead of camping on it.
func decideAssignment(ctx *Context, hs []coreHotspot, intensity func(proc int, kind floorplan.UnitKind) float64, intensityScale float64, throttled []bool) []int {
	order := append([]coreHotspot(nil), hs...)
	sort.SliceStable(order, func(i, j int) bool { return order[i].critTemp > order[j].critTemp })

	// evictionBiasC is the cost handicap (in °C-equivalent) applied to
	// keeping a thread on a core whose thermal control was recently
	// engaged. It converts the matching from a purely static placement
	// into the rotating heat-balancing behaviour the paper observes
	// (Figure 5: threads cycle through a core every few epochs).
	const evictionBiasC = 2.0

	n := ctx.Sched.NumCores()
	// The candidate pool is the currently running set: with time-shared
	// multiprogramming (more processes than cores) the fairness rotation
	// owns which processes run; migration only re-places them.
	pool := ctx.Sched.Assignment()
	remaining := make(map[int]bool, len(pool))
	for _, p := range pool {
		remaining[p] = true
	}
	assign := make([]int, n)
	match := func(h coreHotspot) {
		best, bestVal := -1, math.Inf(1)
		// Deterministic iteration over the remaining set.
		for _, p := range pool {
			if !remaining[p] {
				continue
			}
			v := h.tInt + intensityScale*intensity(p, floorplan.KindIntRegFile)
			if f := h.tFP + intensityScale*intensity(p, floorplan.KindFPRegFile); f > v {
				v = f
			}
			if ctx.Sched.ProcessOn(h.core).ID == p {
				if len(throttled) == n && throttled[h.core] {
					v += evictionBiasC
				} else {
					// Tie-break in favour of the incumbent to avoid
					// gratuitous migrations ("the best candidate ... will
					// be itself, in which case a migration is not done").
					v -= 1e-9
				}
			}
			if v < bestVal {
				best, bestVal = p, v
			}
		}
		assign[h.core] = best
		delete(remaining, best)
	}
	for _, h := range order {
		match(h)
	}
	return assign
}

// shouldDecide implements the decision trigger of §6.1: migration
// decisions are actuated when the local thermal control of at least two
// individual cores signals — either because their critical hotspot
// changed identity, or because their controllers are actively
// throttling (the thermal trap that accompanies every stop-go stall and
// every depressed DVFS operating point). Requests within the 10 ms
// epoch are ignored (the scheduler enforces the epoch).
func shouldDecide(ctx *Context, ct *criticalTracker, hs []coreHotspot) (bool, []bool) {
	throttled := make([]bool, ctx.Sched.NumCores())
	active := 0
	for c := range throttled {
		if ctx.Throttler.Trend(c).AvgScale < 0.98 {
			throttled[c] = true
			active++
		}
	}
	return ct.changedCores(hs) >= 2 || active >= 2, throttled
}

// criticalTracker tracks each core's critical-hotspot identity between
// decisions.
type criticalTracker struct {
	last    []floorplan.UnitKind
	started bool
}

// changedCores returns how many cores' critical hotspot differs from
// the last acknowledged state; Ack records the current state.
func (ct *criticalTracker) changedCores(hs []coreHotspot) int {
	if !ct.started {
		return len(hs) // first observation: everything is news
	}
	n := 0
	for i, h := range hs {
		if ct.last[i] != h.critical {
			n++
		}
	}
	return n
}

func (ct *criticalTracker) ack(hs []coreHotspot) {
	if ct.last == nil {
		ct.last = make([]floorplan.UnitKind, len(hs))
	}
	for i, h := range hs {
		ct.last[i] = h.critical
	}
	ct.started = true
}
