// Package osched models the operating-system half of the paper's
// hardware/software collaboration (§2.5, §6): a process table, the
// thread-to-core assignment, timer-interrupt-paced migration epochs
// (no more than once every 10 ms, "the typical timer interrupt setting
// for a Linux kernel"), the 100 µs per-core migration penalty, and the
// per-thread performance-counter accounting that counter-based
// migration consumes (cycle counts, register-file accesses, and
// instructions executed, §6.1).
package osched

import (
	"fmt"
	"math"
)

// Default OS timing parameters from the paper.
const (
	// DefaultMigrationEpoch is the minimum spacing between migration
	// decisions (10 ms).
	DefaultMigrationEpoch = 10e-3
	// DefaultMigrationPenalty is the per-core cost of a migration
	// (100 µs), during which no useful work retires (Table 3).
	DefaultMigrationPenalty = 100e-6
)

// Counters is the per-process performance-counter state the OS
// maintains: "cycle counts, the number of integer register file
// accesses, the number of floating point register accesses, and
// instructions executed" (§6.1).
type Counters struct {
	AdjCycles    float64 // frequency-adjusted cycles accumulated
	Instructions float64
	IntRFAccess  float64
	FPRFAccess   float64
}

// IntIntensity returns integer register file accesses per adjusted
// cycle — the resource-intensity proxy of §6.1.
func (c Counters) IntIntensity() float64 {
	if c.AdjCycles == 0 {
		return 0
	}
	return c.IntRFAccess / c.AdjCycles
}

// FPIntensity returns FP register file accesses per adjusted cycle.
func (c Counters) FPIntensity() float64 {
	if c.AdjCycles == 0 {
		return 0
	}
	return c.FPRFAccess / c.AdjCycles
}

// Process is one schedulable thread.
type Process struct {
	ID        int
	Benchmark string

	// Counters accumulate for the lifetime of the process; the OS also
	// keeps a decaying window so stale phases do not dominate decisions.
	Lifetime Counters
	Window   Counters

	// WindowDecay in [0,1) is applied to the window at each account
	// step scaled by elapsed time; see Account.
	windowHalflife float64
}

// Account records counter deltas for an execution slice of wall-clock
// length dt seconds. The window decays with the configured half-life so
// intensity estimates track the current program phase.
func (p *Process) Account(dt float64, d Counters) {
	p.Lifetime.AdjCycles += d.AdjCycles
	p.Lifetime.Instructions += d.Instructions
	p.Lifetime.IntRFAccess += d.IntRFAccess
	p.Lifetime.FPRFAccess += d.FPRFAccess

	if p.windowHalflife > 0 {
		decay := halflifeDecay(dt, p.windowHalflife)
		p.Window.AdjCycles *= decay
		p.Window.Instructions *= decay
		p.Window.IntRFAccess *= decay
		p.Window.FPRFAccess *= decay
	}
	p.Window.AdjCycles += d.AdjCycles
	p.Window.Instructions += d.Instructions
	p.Window.IntRFAccess += d.IntRFAccess
	p.Window.FPRFAccess += d.FPRFAccess
}

func halflifeDecay(dt, halflife float64) float64 {
	return math.Exp2(-dt / halflife)
}

// Scheduler owns the process table and thread↔core assignment. It
// supports both the paper's one-process-per-core configuration
// (NewScheduler) and time-shared multiprogramming with more processes
// than cores (NewTimeshared).
type Scheduler struct {
	procs  []*Process
	onCore []int // process index running on core i
	coreOf []int // core index running process p, or Waiting

	epoch   float64 // min seconds between migration decisions
	penalty float64 // per-core migration penalty, seconds

	lastDecision float64   // time of last migration decision
	busyUntil    []float64 // per-core: end of migration penalty window
	migrations   int

	// Time-sharing state; idle while no process waits.
	nCores       int
	timeslice    float64
	lastRotation float64
	waitingSince []float64
	stintStart   []float64
	cumRun       []float64
	waitQueue    []int
}

// NewScheduler creates a scheduler with process i initially on core i
// (one process per core, as in the paper's four-program workloads). It
// is a time-shared scheduler with no process waiting, so it never
// rotates.
func NewScheduler(benchmarks []string) *Scheduler {
	return newScheduler(benchmarks, len(benchmarks), DefaultTimeslice)
}

// SetEpoch overrides the migration epoch (for ablation studies).
func (s *Scheduler) SetEpoch(seconds float64) { s.epoch = seconds }

// SetPenalty overrides the migration penalty.
func (s *Scheduler) SetPenalty(seconds float64) { s.penalty = seconds }

// Epoch returns the configured migration epoch.
func (s *Scheduler) Epoch() float64 { return s.epoch }

// NumCores returns the number of cores managed.
func (s *Scheduler) NumCores() int { return len(s.onCore) }

// ProcessOn returns the process currently assigned to core.
func (s *Scheduler) ProcessOn(core int) *Process { return s.procs[s.onCore[core]] }

// CoreOf returns the core currently running process id p.
func (s *Scheduler) CoreOf(p int) int { return s.coreOf[p] }

// Process returns process id p.
func (s *Scheduler) Process(p int) *Process { return s.procs[p] }

// Processes returns the process table (shared storage).
func (s *Scheduler) Processes() []*Process { return s.procs }

// Assignment returns a copy of the current process→core placement
// indexed by core.
func (s *Scheduler) Assignment() []int {
	return append([]int(nil), s.onCore...)
}

// MayDecide reports whether a migration decision is permitted at the
// given time: at most one per epoch ("if this happens more often than
// 10 milliseconds, extra requests are simply ignored", §6.1).
func (s *Scheduler) MayDecide(now float64) bool {
	return now-s.lastDecision >= s.epoch
}

// Apply enacts a new assignment (process index per core) at the given
// time. Cores whose process changed pay the migration penalty. Returns
// the number of cores that actually changed. The call counts as a
// decision even when nothing moves.
func (s *Scheduler) Apply(now float64, assign []int) (moved int, err error) {
	if len(assign) != len(s.onCore) {
		return 0, fmt.Errorf("osched: assignment length %d, want %d", len(assign), len(s.onCore))
	}
	seen := make([]bool, len(s.procs))
	for _, p := range assign {
		if p < 0 || p >= len(s.procs) {
			return 0, fmt.Errorf("osched: assignment references process %d", p)
		}
		if seen[p] {
			return 0, fmt.Errorf("osched: process %d assigned to two cores", p)
		}
		seen[p] = true
	}
	s.lastDecision = now
	for core, p := range assign {
		if s.onCore[core] == p {
			continue
		}
		moved++
		s.onCore[core] = p
		s.coreOf[p] = core
		s.busyUntil[core] = now + s.penalty
	}
	if moved > 0 {
		s.migrations++
	}
	if len(s.procs) > len(s.onCore) {
		s.applyTimeshared(now, assign)
	}
	return moved, nil
}

// InPenalty reports whether the core is still flushing/restoring
// context after a migration at the given time.
func (s *Scheduler) InPenalty(core int, now float64) bool {
	return now < s.busyUntil[core]
}

// Migrations returns the number of Apply calls that moved at least one
// process.
func (s *Scheduler) Migrations() int { return s.migrations }
