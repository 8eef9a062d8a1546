package serve

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"multitherm/internal/metrics"
	"multitherm/internal/parallel"
	"multitherm/internal/sim"
)

// The batcher promotes the sweep engine's per-group lockstep batching
// (GEMV→GEMM panels over cells of one sim.BatchKey) from per-process
// to cross-request scope: cells arriving from *different* clients that
// share one (Template, dt) propagator are held for a short batching
// window and then stepped together through one shared
// thermal.BatchModel panel. The window trades a bounded latency bump
// (thermald's -window, default 2 ms) for the per-lane GEMM saving:
// BenchmarkThermalStepBatch8 steps a lane in ~230 ns against ~480 ns
// for BenchmarkThermalStepExpmDirty's unbatched tick on a 2-vCPU
// AVX-512 Xeon. Only misses that arrive within one window share a
// panel; on perfbench's serve_open traffic serve.lanes_per_batch reads
// 1, so there every miss waits out the window alone.
//
// Batch composition depends on arrival timing and is therefore not
// deterministic; responses still are, because lockstep stepping is
// bit-identical to sequential stepping at any width and any packing
// (sim.BatchRunner's contract, fuzzed and tested since PR 3). The
// batcher only ever changes *when* a cell runs and *whose cache lines
// it shares*, never what it computes.

// joinResult is what a waiting request receives: the canonical
// response bytes for its cell, or the error that stopped them.
type joinResult struct {
	bytes []byte
	err   error
}

// join is one cell waiting to be packed into a batch. done is buffered
// so a completed batch never blocks on an abandoned requester.
type join struct {
	c    *cell
	done chan joinResult
}

func newJoin(c *cell) *join {
	return &join{c: c, done: make(chan joinResult, 1)}
}

// group accumulates joins for one propagator family between flushes.
type group struct {
	b  *batcher
	mu sync.Mutex
	// pending joins in arrival order; the armed timer covers exactly
	// the joins accumulated since the last flush. Both are guarded by mu.
	pending []*join
	timer   *time.Timer
}

// batcher coalesces joins into lockstep batches and dispatches them to
// the worker pool.
type batcher struct {
	pool   *parallel.Pool
	width  int           // max lanes per dispatched batch
	window time.Duration // how long a lone join waits for company

	mu     sync.Mutex
	groups map[sim.BatchKey]*group // guarded by mu

	// Counters for /v1/stats.
	batches, lanes        atomic.Int64
	fullFlushes, timeouts atomic.Int64
	widest                atomic.Int64
	fallbackSingles       atomic.Int64
}

func newBatcher(pool *parallel.Pool, window time.Duration) *batcher {
	return &batcher{
		pool:   pool,
		width:  sim.DefaultBatchSize(),
		window: window,
		groups: map[sim.BatchKey]*group{},
	}
}

// enabled reports whether cross-request coalescing is on; with a zero
// window every join dispatches immediately.
func (b *batcher) enabled() bool { return b.window > 0 }

// groupFor returns the group a cell batches under.
func (b *batcher) groupFor(c *cell) (*group, error) {
	k, err := sim.BatchKeyOf(c.cfg)
	if err != nil {
		return nil, err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	g, ok := b.groups[k]
	if !ok {
		g = &group{b: b}
		b.groups[k] = g
	}
	return g, nil
}

// submit queues one cell. The returned join's done channel receives
// exactly one result once the cell's batch has run.
func (b *batcher) submit(c *cell) *join {
	j := newJoin(c)
	if !b.enabled() {
		b.dispatch([]*join{j})
		return j
	}
	g, err := b.groupFor(c)
	if err != nil {
		j.done <- joinResult{err: err}
		return j
	}
	g.mu.Lock()
	g.pending = append(g.pending, j)
	if len(g.pending) >= b.width {
		batch := g.take()
		g.mu.Unlock()
		b.fullFlushes.Add(1)
		b.dispatch(batch)
		return j
	}
	if len(g.pending) == 1 {
		// First join since the last flush arms the window timer; the
		// full-width path above disarms it by draining pending.
		g.timer = time.AfterFunc(b.window, g.flush)
	}
	g.mu.Unlock()
	return j
}

// take removes and returns every pending join. Callers hold g.mu.
func (g *group) take() []*join {
	batch := g.pending
	g.pending = nil
	if g.timer != nil {
		g.timer.Stop()
		g.timer = nil
	}
	return batch
}

// flush dispatches whatever accumulated during the window.
func (g *group) flush() {
	g.mu.Lock()
	batch := g.take()
	g.mu.Unlock()
	if len(batch) > 0 {
		g.b.timeouts.Add(1)
		g.b.dispatch(batch)
	}
}

// flushAll force-flushes every group; the drain path calls it before
// closing the pool so no join is left waiting on a dead timer.
func (b *batcher) flushAll() {
	b.mu.Lock()
	groups := make([]*group, 0, len(b.groups))
	//mtlint:allow maprange collecting groups to flush; flush order is irrelevant, each group drains independently
	for _, g := range b.groups {
		groups = append(groups, g)
	}
	b.mu.Unlock()
	for _, g := range groups {
		g.flush()
	}
}

// dispatch hands one formed batch to the pool. If the pool has begun
// closing, the joins fail rather than hang.
func (b *batcher) dispatch(batch []*join) {
	b.batches.Add(1)
	b.lanes.Add(int64(len(batch)))
	for w := int64(len(batch)); ; {
		old := b.widest.Load()
		if w <= old || b.widest.CompareAndSwap(old, w) {
			break
		}
	}
	if err := b.pool.Submit(func() { runBatch(b, batch) }); err != nil {
		for _, j := range batch {
			j.done <- joinResult{err: fmt.Errorf("serve: draining: %w", err)}
		}
	}
}

// runBatch executes one batch on a pool worker: it builds fresh
// runners and steps them in lockstep through the shared propagator
// panel (a one-lane batch is exactly Runner.Run). Every lane's bytes
// are bit-identical to a sequential run.
func runBatch(b *batcher, batch []*join) {
	live := make([]*sim.Runner, 0, len(batch))
	liveJoins := make([]*join, 0, len(batch))
	for _, j := range batch {
		r, err := j.c.newRunner()
		if err != nil {
			// A lane that cannot even construct fails alone; the rest of
			// the batch proceeds without it.
			j.done <- joinResult{err: err}
			continue
		}
		live = append(live, r)
		liveJoins = append(liveJoins, j)
	}
	if len(live) == 0 {
		return
	}
	var ms []*metrics.Run
	br, err := sim.NewBatchRunner(live)
	if err == nil {
		ms, err = br.Run()
	}
	if err != nil {
		// Lanes that cannot share a propagator (foreign template, odd
		// sample period) and a mid-run failure, which poisons the shared
		// panels for every lane, both fall back to sequential runs: the
		// same bytes, with errors attributed per cell and healthy lanes
		// still answering.
		b.fallbackSingles.Add(int64(len(liveJoins)))
		for _, j := range liveJoins {
			j.done <- runSingle(j.c)
		}
		return
	}
	for i, j := range liveJoins {
		bytes, err := encodeResult(j.c, ms[i])
		j.done <- joinResult{bytes: bytes, err: err}
	}
}

// runSingle executes one cell alone and encodes its canonical bytes.
// Runner.Run is a one-lane sim.BatchRunner, so this fallback steps
// through the same engine as runBatch; every batched lane matches it
// bit for bit.
func runSingle(c *cell) joinResult {
	r, err := c.newRunner()
	if err != nil {
		return joinResult{err: err}
	}
	m, err := r.Run()
	if err != nil {
		return joinResult{err: err}
	}
	bytes, err := encodeResult(c, m)
	return joinResult{bytes: bytes, err: err}
}

// batchStats is the /v1/stats projection of the batcher counters.
type batchStats struct {
	Enabled         bool    `json:"enabled"`
	Width           int     `json:"width"`
	WindowMS        float64 `json:"window_ms"`
	Batches         int64   `json:"batches"`
	Lanes           int64   `json:"lanes"`
	WidestBatch     int64   `json:"widest_batch"`
	FullFlushes     int64   `json:"full_flushes"`
	WindowFlushes   int64   `json:"window_flushes"`
	FallbackSingles int64   `json:"fallback_singles"`
}

func (b *batcher) stats() batchStats {
	return batchStats{
		Enabled:         b.enabled(),
		Width:           b.width,
		WindowMS:        float64(b.window) / float64(time.Millisecond),
		Batches:         b.batches.Load(),
		Lanes:           b.lanes.Load(),
		WidestBatch:     b.widest.Load(),
		FullFlushes:     b.fullFlushes.Load(),
		WindowFlushes:   b.timeouts.Load(),
		FallbackSingles: b.fallbackSingles.Load(),
	}
}
