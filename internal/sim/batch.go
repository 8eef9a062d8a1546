package sim

import (
	"fmt"

	"multitherm/internal/metrics"
	"multitherm/internal/thermal"
	"multitherm/internal/units"
)

// BatchKey identifies the thermal propagator a simulation steps
// through: its template and its control period. Runners with equal
// keys can share one BatchRunner. Templates are memoized singletons,
// so pointer identity is exact, and the period must match exactly
// because it fixes the discretization.
type BatchKey struct {
	tmpl *thermal.Template
	dt   units.Seconds
}

// BatchKeyOf returns the batch key of every runner built from cfg.
func BatchKeyOf(cfg Config) (BatchKey, error) {
	tmpl, err := thermal.TemplateFor(cfg.Floorplan, cfg.Thermal)
	if err != nil {
		return BatchKey{}, err
	}
	return BatchKey{tmpl: tmpl, dt: cfg.Policy.SamplePeriod}, nil
}

// BatchRunner steps K independent runners in lockstep so their thermal
// advances fuse into one shared-propagator panel update (GEMV → GEMM,
// see thermal.BatchModel). Everything per-lane — controllers, sensors,
// schedulers, migration, metrics — runs through the same tickState
// code, and a lane's thermal trajectory does not depend on the batch
// width, so a batched run is bit-identical to K one-lane runs; only the
// thermal step is shared. Runner.Run is the one-lane case.
//
// Lanes may be ragged: runners with shorter SimTime finish early and
// drop out of the control loop while the rest keep stepping.
type BatchRunner struct {
	runners []*Runner
}

// NewBatchRunner validates that the runners share one BatchKey — same
// thermal template and same control period — and adopts them. Each
// runner must be fresh (not yet Run).
func NewBatchRunner(runners []*Runner) (*BatchRunner, error) {
	if len(runners) == 0 {
		return nil, fmt.Errorf("sim: empty batch")
	}
	key := runners[0].batchKey()
	for i, r := range runners {
		if r.batchKey() != key {
			return nil, fmt.Errorf("sim: batch lane %d (%s) uses a different thermal template or sample period than lane 0", i, r.label)
		}
	}
	return &BatchRunner{runners: runners}, nil
}

// batchKey is BatchKeyOf(r.cfg), read off the runner's own model.
func (r *Runner) batchKey() BatchKey {
	return BatchKey{tmpl: r.model.Template, dt: r.cfg.Policy.SamplePeriod}
}

// Run executes all lanes to completion and returns their metrics in
// lane order.
func (b *BatchRunner) Run() ([]*metrics.Run, error) {
	k := len(b.runners)
	// laneErr names the failing lane; a one-lane batch is a lone
	// Runner.Run, whose errors read without lane context.
	laneErr := func(l int, err error) error {
		if k == 1 {
			return err
		}
		return fmt.Errorf("sim: batch lane %d (%s): %w", l, b.runners[l].label, err)
	}
	states := make([]*tickState, k)
	for l, r := range b.runners {
		st, err := r.begin()
		if err != nil {
			return nil, laneErr(l, err)
		}
		states[l] = st
	}
	dt := states[0].dt

	// Fuse the thermal advance where the exact step beats substepped
	// RK4 on this machine (see thermal.PreferExact); otherwise each lane
	// substeps RK4 on its own. The discretization is memoized per
	// (template, dt) and deterministic, so parallel sweep workers share
	// one build and produce identical trajectories. begin() has already
	// installed the warmup state, so the adopted temperatures carry into
	// the panels.
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
					return nil, laneErr(l, err)
				}
				results[l] = res
				done[l] = true
				active--
				continue
			}
			if err := st.pre(); err != nil {
				return nil, laneErr(l, err)
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

// DefaultBatchSize is the widest lockstep batch the sweep and the
// server cut: 10 lanes. A dense lane's working set is four stride-wide
// float64 panels — state in, state out, input term and the replicated
// ambient bias, 512 bytes each at the packed stride of 64 — plus its
// power column of n entries: about 2.4 KiB for the 55-node CMP4, so
// ten lanes hold about 24 KiB of a typical 32 KiB L1d beside the
// streamed propagator columns. Only a benchmark should move the value.
func DefaultBatchSize() int { return 10 }
