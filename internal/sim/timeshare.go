package sim

import (
	"multitherm/internal/core"
	"multitherm/internal/osched"
)

// NewTimeshared builds a runner for more processes than cores: the OS
// round-robins the process population across the chip with the given
// timeslice (0 = osched.DefaultTimeslice), and the DTM policy operates
// on whatever is running — the multiprogrammed situation the paper's §6
// notes exists in any real system.
func NewTimeshared(cfg Config, label string, benchmarks []string, spec core.PolicySpec, timeslice float64) (*Runner, error) {
	return newRunner(cfg, spec, label, benchmarks, true, timeslice)
}

// Scheduler exposes the OS model (for fairness inspection in tests and
// experiments).
func (r *Runner) Scheduler() *osched.Scheduler { return r.sched }
