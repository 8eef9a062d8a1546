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
// drop out of the control loop while the rest keep stepping. A lane
// that fails drops out the same way, with its error.
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
// lane order, or the lowest failing lane's error with lane context.
func (b *BatchRunner) Run() ([]*metrics.Run, error) {
	ms, errs := b.run()
	for l, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("sim: batch lane %d (%s): %w", l, b.runners[l].label, err)
		}
	}
	return ms, nil
}

// RunBatch builds n lanes, calling newRunner once per lane, and steps
// the ones that build as one BatchRunner. It answers per lane: runs[l],
// or errs[l] worded as a lone Runner.Run of lane l words it. A failed
// lane never stops its batchmates. Lanes whose batch keys differ
// cannot share a batch, so each of them gets the mismatch error.
func RunBatch(n int, newRunner func(lane int) (*Runner, error)) ([]*metrics.Run, []error) {
	runs := make([]*metrics.Run, n)
	errs := make([]error, n)
	var runners []*Runner
	var lanes []int
	for l := range n {
		r, err := newRunner(l)
		if err != nil {
			errs[l] = err
			continue
		}
		runners = append(runners, r)
		lanes = append(lanes, l)
	}
	br, err := NewBatchRunner(runners)
	if err != nil {
		for _, l := range lanes {
			errs[l] = err
		}
		return runs, errs
	}
	ms, es := br.run()
	for j, l := range lanes {
		runs[l], errs[l] = ms[j], es[j]
	}
	return runs, errs
}

// run is the tick loop every simulation steps through. A lane that
// fails in begin, in a tick's pre or at finish drops out of the control
// loop with its error, as a finished lane drops out with its metrics.
// No lane's panel arithmetic reads another lane (thermal.BatchModel),
// so the rest keep their bits.
func (b *BatchRunner) run() ([]*metrics.Run, []error) {
	k := len(b.runners)
	results := make([]*metrics.Run, k)
	errs := make([]error, k)
	states := make([]*tickState, k)
	done := make([]bool, k)
	active := k
	seal := func(l int, m *metrics.Run, err error) {
		results[l], errs[l], done[l] = m, err, true
		active--
	}
	for l, r := range b.runners {
		st, err := r.begin()
		if err != nil {
			seal(l, nil, err)
			continue
		}
		states[l] = st
	}
	dt := b.runners[0].cfg.Policy.SamplePeriod

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
			for l := range k {
				if !done[l] {
					seal(l, nil, fmt.Errorf("sim: batching thermal models: %w", err))
				}
			}
		}
	}

	for active > 0 {
		for l, st := range states {
			if done[l] {
				continue
			}
			if st.done() {
				m, err := st.finish()
				seal(l, m, err)
				continue
			}
			if err := st.pre(); err != nil {
				seal(l, nil, err)
			}
		}
		if active == 0 {
			break
		}
		if batch != nil {
			// Finished and failed lanes ride along (their state keeps
			// evolving, but their answers are sealed); active lanes
			// advance in lockstep.
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
	return results, errs
}

// DefaultBatchSize is the widest lockstep batch the sweep and the
// server cut: 10 lanes. A dense lane's working set is four stride-wide
// float64 panels — state in, state out, input term and the replicated
// ambient bias, 512 bytes each at the packed stride of 64 — plus its
// power column of n entries: about 2.4 KiB for the 55-node CMP4, so
// ten lanes hold about 24 KiB of a typical 32 KiB L1d beside the
// streamed propagator columns. Only a benchmark should move the value.
func DefaultBatchSize() int { return 10 }

// CutBatches groups lanes by key in first-seen order and cuts the
// groups into batches of lane indices (cutGroups) for workers workers,
// a resolved count of at least 1. It never depends on timing.
func CutBatches(keys []BatchKey, workers int) [][]int {
	groupOf := map[BatchKey]int{}
	var groups [][]int
	for i, k := range keys {
		g, seen := groupOf[k]
		if !seen {
			g = len(groups)
			groupOf[k] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], i)
	}
	return cutGroups(groups, DefaultBatchSize(), workers)
}

// cutGroups cuts each group of same-key lanes into batches of
// consecutive lanes, in group order. A batch is at most width lanes
// wide, and at most ceil(len(group)/workers), so one group spreads over
// every worker instead of leaving some idle: three lanes on two workers
// run as a two-lane and a one-lane batch, not one three-lane batch.
// With one worker the cut is width-sized.
func cutGroups(groups [][]int, width, workers int) [][]int {
	var batches [][]int
	for _, idx := range groups {
		w := min(width, (len(idx)+workers-1)/workers)
		for len(idx) > 0 {
			n := min(len(idx), w)
			batches = append(batches, idx[:n])
			idx = idx[n:]
		}
	}
	return batches
}
