package sim

import (
	"fmt"

	"multitherm/internal/metrics"
	"multitherm/internal/thermal"
)

// BatchRunner steps K independent runners in lockstep so their thermal
// advances fuse into one shared-propagator panel update (GEMV → GEMM,
// see thermal.BatchModel). Everything per-lane — controllers, sensors,
// schedulers, migration, metrics — runs unchanged through the same
// tickState code as the sequential Runner.Run, so a batched run is
// bit-identical to K sequential runs; only the thermal step is shared.
//
// Lanes may be ragged: runners with shorter SimTime finish early and
// drop out of the control loop while the rest keep stepping.
type BatchRunner struct {
	runners []*Runner
}

// NewBatchRunner validates that the runners can share one propagator —
// same thermal template and same control period — and adopts them.
// Each runner must be fresh (not yet Run).
func NewBatchRunner(runners []*Runner) (*BatchRunner, error) {
	if len(runners) == 0 {
		return nil, fmt.Errorf("sim: empty batch")
	}
	tmpl := runners[0].model.Template
	dt := runners[0].cfg.Policy.SamplePeriod
	for i, r := range runners {
		if r.model.Template != tmpl {
			return nil, fmt.Errorf("sim: batch lane %d (%s) uses a different thermal template", i, r.label)
		}
		if r.cfg.Policy.SamplePeriod != dt { //mtlint:allow floatcmp lanes must share the exact discretization grid; both sides units.Seconds, same dimension
			return nil, fmt.Errorf("sim: batch lane %d (%s) uses sample period %g, batch uses %g",
				i, r.label, r.cfg.Policy.SamplePeriod, dt)
		}
	}
	return &BatchRunner{runners: runners}, nil
}

// Run executes all lanes to completion and returns their metrics in
// lane order. A one-lane batch has nothing to fuse, so it takes
// Runner.Run's path: same metrics, same errors, no panel set-up.
func (b *BatchRunner) Run() ([]*metrics.Run, error) {
	k := len(b.runners)
	if k == 1 {
		m, err := b.runners[0].Run()
		if err != nil {
			return nil, err
		}
		return []*metrics.Run{m}, nil
	}
	states := make([]*tickState, k)
	for l, r := range b.runners {
		st, err := r.begin(false)
		if err != nil {
			return nil, fmt.Errorf("sim: batch lane %d (%s): %w", l, r.label, err)
		}
		states[l] = st
	}
	dt := states[0].dt

	// Fuse the thermal advance only where the sequential runner would
	// arm the exact path; otherwise each lane substeps RK4 on its own,
	// exactly as Runner.Run would, preserving bit-identity either way.
	// begin() has already installed the warmup state, so the adopted
	// temperatures carry into the panels.
	var batch *thermal.BatchModel
	if b.runners[0].model.PreferExact(dt) {
		models := make([]*thermal.Model, k)
		for l, r := range b.runners {
			models[l] = r.model
		}
		var err error
		if batch, err = thermal.NewBatch(models, dt); err != nil {
			return nil, fmt.Errorf("sim: batching thermal models: %w", err)
		}
	}

	results := make([]*metrics.Run, k)
	done := make([]bool, k)
	active := k
	for active > 0 {
		for l, st := range states {
			if done[l] {
				continue
			}
			if st.done() {
				res, err := st.finish()
				if err != nil {
					return nil, fmt.Errorf("sim: batch lane %d (%s): %w", l, b.runners[l].label, err)
				}
				results[l] = res
				done[l] = true
				active--
				continue
			}
			if err := st.pre(); err != nil {
				return nil, fmt.Errorf("sim: batch lane %d (%s): %w", l, b.runners[l].label, err)
			}
		}
		if active == 0 {
			break
		}
		if batch != nil {
			// Finished lanes ride along (their state keeps evolving, but
			// their metrics are sealed); active lanes advance in lockstep.
			batch.Step()
		} else {
			for l, st := range states {
				if !done[l] {
					b.runners[l].model.Step(st.dt)
				}
			}
		}
		for l, st := range states {
			if !done[l] {
				st.post()
			}
		}
	}
	return results, nil
}

// DefaultBatchSize picks a lane count that keeps the batched working
// set — three padded float64 panels (state in, state out, input term)
// per lane at the packed stride of 64 — inside half of a typical
// 32 KiB L1d, leaving the other half for the streamed propagator
// columns. That lands at 10 lanes; clamp to [4, 16] so the answer
// stays sane if the arithmetic drifts with future panel layouts.
func DefaultBatchSize() int {
	const (
		l1d     = 32 << 10
		perLane = 3 * 64 * 8
	)
	n := (l1d / 2) / perLane
	if n < 4 {
		n = 4
	}
	if n > 16 {
		n = 16
	}
	return n
}
