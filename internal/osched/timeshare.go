package osched

import (
	"fmt"
	"math"
)

// DefaultTimeslice is the round-robin quantum used when more processes
// than cores are runnable. The paper's experiments hold one process per
// core, but its §6 notes that "in any system there can easily be a
// greater number of processes than cores"; this extension provides the
// OS mechanics for that case.
const DefaultTimeslice = 20e-3

// NewTimeshared creates a scheduler for len(benchmarks) processes on
// nCores cores with round-robin time slicing. Processes 0..nCores−1
// start on the cores; the rest wait. With len(benchmarks) == nCores the
// scheduler behaves exactly like NewScheduler.
func NewTimeshared(benchmarks []string, nCores int, timeslice float64) (*Scheduler, error) {
	if nCores <= 0 {
		return nil, fmt.Errorf("osched: nCores = %d", nCores)
	}
	if len(benchmarks) < nCores {
		return nil, fmt.Errorf("osched: %d processes for %d cores", len(benchmarks), nCores)
	}
	if timeslice <= 0 {
		timeslice = DefaultTimeslice
	}
	s := &Scheduler{
		epoch:        DefaultMigrationEpoch,
		penalty:      DefaultMigrationPenalty,
		lastDecision: -1e9,
		nCores:       nCores,
		timeslice:    timeslice,
		// The first rotation comes one full timeslice into the run.
		lastRotation: 0,
	}
	for i, b := range benchmarks {
		s.procs = append(s.procs, &Process{ID: i, Benchmark: b, windowHalflife: 20e-3})
		if i < nCores {
			s.onCore = append(s.onCore, i)
			s.coreOf = append(s.coreOf, i)
		} else {
			s.coreOf = append(s.coreOf, Waiting)
			s.waitQueue = append(s.waitQueue, i)
		}
	}
	s.waitingSince = make([]float64, len(benchmarks))
	s.stintStart = make([]float64, len(benchmarks))
	s.cumRun = make([]float64, len(benchmarks))
	s.busyUntil = make([]float64, nCores)
	return s, nil
}

// Waiting marks a process that currently has no core.
const Waiting = -1

// NumProcesses returns the process count (≥ NumCores).
func (s *Scheduler) NumProcesses() int { return len(s.procs) }

// IsWaiting reports whether process p is off-core.
func (s *Scheduler) IsWaiting(p int) bool { return s.coreOf[p] == Waiting }

// NeedsRotation reports whether a fairness preemption is due: at least
// one process is waiting and a full timeslice has elapsed since the
// last rotation.
func (s *Scheduler) NeedsRotation(now float64) bool {
	return len(s.waitQueue) > 0 && s.timeslice > 0 && now-s.lastRotation >= s.timeslice
}

// RotationAssignment computes the fair next placement: the
// longest-waiting processes replace the processes with the most
// accumulated runtime. It does not apply the assignment.
func (s *Scheduler) RotationAssignment(now float64) []int {
	assign := s.Assignment()
	k := len(s.waitQueue)
	if k > s.nCores {
		k = s.nCores
	}
	// replaced marks the cores an earlier incoming process took, which
	// no later one may take again.
	replaced := make([]bool, len(assign))
	for i := 0; i < k; i++ {
		incoming := s.waitQueue[i]
		// Victim: running process with the largest total runtime.
		victim, worst := -1, math.Inf(-1)
		for c, p := range assign {
			if replaced[c] {
				continue
			}
			if run := s.cumRun[p] + (now - s.stintStart[p]); run > worst {
				victim, worst = c, run
			}
		}
		if victim < 0 {
			break
		}
		assign[victim] = incoming
		replaced[victim] = true
	}
	return assign
}

// MarkRotation records that a fairness rotation was enacted at now.
func (s *Scheduler) MarkRotation(now float64) { s.lastRotation = now }

// applyTimeshared reconciles waiting-state bookkeeping after Apply has
// placed `assign`; procs displaced from cores join the wait queue, and
// placed procs leave it.
func (s *Scheduler) applyTimeshared(now float64, assign []int) {
	running := make(map[int]bool, len(assign))
	for _, p := range assign {
		running[p] = true
	}
	// Displaced processes accumulate runtime and start waiting.
	for p := range s.procs {
		if s.coreOf[p] != Waiting && !running[p] {
			s.cumRun[p] += now - s.stintStart[p]
			s.coreOf[p] = Waiting
			s.waitingSince[p] = now
			s.waitQueue = append(s.waitQueue, p)
		}
	}
	// Placed processes leave the wait queue.
	var q []int
	for _, p := range s.waitQueue {
		if running[p] {
			s.stintStart[p] = now
		} else {
			q = append(q, p)
		}
	}
	s.waitQueue = q
}
