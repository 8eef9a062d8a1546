// Package core implements the paper's primary contribution: the
// taxonomy of dynamic thermal management (DTM) policies for chip
// multiprocessors (Table 2) and the throttling mechanisms that populate
// it — stop-go clock gating (§2.3, §5.1) and control-theoretic DVFS
// (§4) — each applicable chip-globally or per-core ("distributed",
// §2.4). Migration controllers (the third taxonomy axis) build on these
// throttlers' trend data and live in internal/migration; the two-loop
// composition of Figure 1 is assembled by the simulator.
//
//mtlint:deterministic
//mtlint:units
package core

import (
	"fmt"
	"sort"
	"strings"

	"multitherm/internal/control"
	"multitherm/internal/units"
)

// Mechanism is the low-level throttling mechanism axis of Table 2.
type Mechanism int

const (
	StopGo Mechanism = iota
	DVFS
)

func (m Mechanism) String() string {
	if m == DVFS {
		return "DVFS"
	}
	return "stop-go"
}

// Scope is the global-vs-distributed axis of Table 2.
type Scope int

const (
	Global Scope = iota
	Distributed
)

func (s Scope) String() string {
	if s == Distributed {
		return "distributed"
	}
	return "global"
}

// MigrationKind is the process-migration axis of Table 2.
type MigrationKind int

const (
	NoMigration MigrationKind = iota
	CounterMigration
	SensorMigration
)

func (k MigrationKind) String() string {
	switch k {
	case CounterMigration:
		return "counter-based migration"
	case SensorMigration:
		return "sensor-based migration"
	default:
		return "no migration"
	}
}

// PolicySpec identifies one cell of the paper's 12-policy taxonomy.
type PolicySpec struct {
	Mechanism Mechanism
	Scope     Scope
	Migration MigrationKind
}

// String renders the spec the way the paper labels policies, e.g.
// "Dist. DVFS + sensor-based migration".
func (p PolicySpec) String() string {
	scope := "Global"
	if p.Scope == Distributed {
		scope = "Dist."
	}
	s := fmt.Sprintf("%s %s", scope, p.Mechanism)
	if p.Migration != NoMigration {
		s += " + " + p.Migration.String()
	}
	return s
}

// Baseline is the paper's normalization policy: distributed stop-go
// with no migration.
var Baseline = PolicySpec{Mechanism: StopGo, Scope: Distributed, Migration: NoMigration}

// Taxonomy enumerates all 12 policy combinations of Table 2, ordered
// by migration axis, then scope, then mechanism — matching the paper's
// table layout read left-to-right, top-to-bottom.
func Taxonomy() []PolicySpec {
	var out []PolicySpec
	for _, mig := range []MigrationKind{NoMigration, CounterMigration, SensorMigration} {
		for _, scope := range []Scope{Global, Distributed} {
			for _, mech := range []Mechanism{StopGo, DVFS} {
				out = append(out, PolicySpec{Mechanism: mech, Scope: scope, Migration: mig})
			}
		}
	}
	return out
}

// CLIName returns the short machine-friendly identifier of a taxonomy
// cell — "dist-dvfs", "global-stopgo", "dist-dvfs+sensor" — the form
// accepted by PolicyByName and used by the CLI flags and the serving
// API alike.
func (p PolicySpec) CLIName() string {
	mech := "stopgo"
	if p.Mechanism == DVFS {
		mech = "dvfs"
	}
	scope := "global"
	if p.Scope == Distributed {
		scope = "dist"
	}
	name := scope + "-" + mech
	switch p.Migration {
	case CounterMigration:
		name += "+counter"
	case SensorMigration:
		name += "+sensor"
	}
	return name
}

// PolicyNames lists the accepted PolicyByName identifiers, sorted.
func PolicyNames() []string {
	out := make([]string, 0, 12)
	for _, p := range Taxonomy() {
		out = append(out, p.CLIName())
	}
	sort.Strings(out)
	return out
}

// PolicyByName resolves names like "dist-dvfs", "global-stopgo",
// "dist-stopgo+counter", or "dist-dvfs+sensor" (case-insensitive,
// surrounding whitespace ignored). It is a strict whitelist lookup:
// the result is one of the taxonomy's static specs regardless of
// input.
func PolicyByName(name string) (PolicySpec, error) {
	want := strings.ToLower(strings.TrimSpace(name))
	for _, p := range Taxonomy() {
		if p.CLIName() == want {
			return p, nil
		}
	}
	return PolicySpec{}, fmt.Errorf("core: unknown policy %q (known: %s)",
		name, strings.Join(PolicyNames(), ", "))
}

// Params gathers the thermal-control constants shared by all policies.
type Params struct {
	// ThresholdC is the emergency temperature no part of the chip may
	// exceed (paper §3.5: 84.2 °C).
	ThresholdC units.Celsius
	// TripMarginC: stop-go interrupts fire when a sensor reads within
	// this margin below the threshold ("just below the thermal
	// threshold", §5.1).
	TripMarginC units.Celsius
	// SetpointMarginC: the DVFS PI setpoint sits this far below the
	// threshold ("a setpoint slightly below the thermal threshold",
	// §2.3).
	SetpointMarginC units.Celsius
	// StallSeconds is the stop-go freeze interval (30 ms, §2.3).
	StallSeconds units.Seconds
	// SamplePeriod is the control interval (100K cycles ≈ 27.8 µs).
	SamplePeriod units.Seconds
	// PI gains in scale per °C (§4.1) and actuator limits (§4.2).
	//mtlint:allow unit controller gains are scale per °C, not a units dimension
	Kp, Ki float64
	Limits control.PILimits
	// TransitionPenalty is the PLL/voltage retarget cost (10 µs).
	TransitionPenalty units.Seconds
}

// DefaultParams returns the paper's constants.
func DefaultParams() Params {
	return Params{
		ThresholdC:        84.2,
		TripMarginC:       0.3,
		SetpointMarginC:   2.4,
		StallSeconds:      30e-3,
		SamplePeriod:      control.PaperSamplePeriod,
		Kp:                control.PaperKp,
		Ki:                control.PaperKi,
		Limits:            control.DefaultPILimits(),
		TransitionPenalty: 10e-6,
	}
}

// Validate checks parameter sanity.
func (p Params) Validate() error {
	if p.ThresholdC <= 0 {
		return fmt.Errorf("core: non-positive threshold")
	}
	if p.TripMarginC < 0 || p.SetpointMarginC < 0 {
		return fmt.Errorf("core: negative margins")
	}
	if p.StallSeconds <= 0 || p.SamplePeriod <= 0 {
		return fmt.Errorf("core: non-positive stall or sample interval")
	}
	if p.Limits.Min >= p.Limits.Max {
		return fmt.Errorf("core: inverted PI limits")
	}
	if p.TransitionPenalty < 0 {
		return fmt.Errorf("core: negative transition penalty")
	}
	return nil
}

// CoreCommand is one core's operating point for the next control
// interval.
type CoreCommand struct {
	Scale units.ScaleFactor // frequency scale factor in (0, 1]
	Stall bool              // stop-go gate engaged: no progress, clocks off
}

// Throttler is the inner control loop of Figure 1: it converts sensor
// readings into per-core operating commands every control interval.
type Throttler interface {
	// Name identifies the throttler for reports.
	Name() string
	// Decide consumes the per-block die temperatures (as read through
	// sensors) at absolute time now (tick = sample index) and returns
	// the command for each core. The returned slice is valid until the
	// next call.
	Decide(now units.Seconds, tick int64, blockTemps units.TempVec) []CoreCommand
	// Trend reports the per-core feedback data the outer migration loop
	// consumes (Figure 1: average scale factor and temperature slope).
	Trend(coreID int) control.TrendReport
	// ResetTrend clears a core's trend window (after the OS reads it).
	ResetTrend(coreID int)
	// NotifyMigration tells the throttler a new thread landed on the
	// core so stale controller state does not carry across contexts.
	NotifyMigration(coreID int)
}
