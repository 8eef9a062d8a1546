// Package parallel schedules simulation work across worker
// goroutines: RunTasks/ForEach for bounded sweeps, Pool for the
// serving stack. Sweeps stay deterministic: work is identified by
// index, results are slotted by index (never by arrival order), and
// the first error — by index, not by time — cancels the remaining work
// and is the one reported. Every goroutine the package spawns joins
// through a WaitGroup on an explicit drain path — enforced by the
// lifecycle analyzer.
//
//mtlint:lifecycle
package parallel

import (
	"context"
	"runtime"
	"sort"
	"sync"
)

// This file holds the work-stealing, size-aware scheduler behind
// ForEach and the experiment sweep. The static round-robin pool it
// replaces fed every worker from one channel, which serializes all
// workers on a single queue and — worse — starts tasks in index order
// regardless of size, so one expensive straggler scheduled last could
// hold the whole sweep open on an otherwise idle machine.
//
// The stealing scheduler fixes both:
//
//   - Tasks carry a cost estimate. Seeding sorts them by descending
//     cost and deals them LPT-style (longest processing time first,
//     each task to the currently least-loaded worker), so the
//     long-running work starts first everywhere and the classic
//     straggler tail shrinks to at most one task's length.
//   - Each worker owns a deque seeded in ascending-cost order: the
//     owner pops from the top (LIFO — its costliest remaining task),
//     while idle workers steal from the bottom (FIFO — the victim's
//     cheapest task). Stealing the small items keeps the owner's big
//     items local and makes steal conflicts short; either way every
//     queue operation touches only that deque's lock, never a global
//     one.
//
// Determinism is unchanged from the channel pool: tasks are identified
// by index, results must be slotted by index, and the reported error is
// the lowest-index failure regardless of steal interleaving. No
// scheduling decision consults wall-clock time or random state, so the
// set of tasks run (absent errors) is always exactly the input set.

// Task is one schedulable unit of work: an index to hand to the work
// function plus a nonnegative cost estimate in arbitrary consistent
// units (simulated seconds, cell counts — only ratios matter). Unknown
// costs may be zero; equal costs fall back to index order.
type Task struct {
	Index int
	Cost  float64
}

// deque is one worker's task queue. The owner pops from the top
// (newest end), thieves steal from the bottom (oldest end); a mutex
// per deque suffices because tasks here are milliseconds long, so the
// queue is touched orders of magnitude less often than it is worked.
type deque struct {
	mu sync.Mutex
	//mtlint:guardedby mu
	tasks []Task // ascending cost: bottom holds the cheapest
}

// popTop removes and returns the owner-end task.
func (d *deque) popTop() (Task, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := len(d.tasks)
	if n == 0 {
		return Task{}, false
	}
	t := d.tasks[n-1]
	d.tasks = d.tasks[:n-1]
	return t, true
}

// stealBottom removes and returns the thief-end task.
func (d *deque) stealBottom() (Task, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.tasks) == 0 {
		return Task{}, false
	}
	t := d.tasks[0]
	d.tasks = d.tasks[1:]
	return t, true
}

// RunTasks executes fn(ctx, t.Index) for every task across at most
// `workers` goroutines using the work-stealing scheduler described
// above. workers <= 0 selects GOMAXPROCS. The call returns after all
// started work has finished.
//
// On failure, the error with the lowest task index is returned — a
// deterministic choice regardless of steal interleaving — and the
// shared context is cancelled so still-running calls can abort early.
// Tasks not yet started when a failure is recorded may never run; on
// error, callers must treat every slot as undefined. If the parent
// context is cancelled, its error is returned.
func RunTasks(ctx context.Context, workers int, tasks []Task, fn func(ctx context.Context, i int) error) error {
	n := len(tasks)
	if n == 0 {
		return ctx.Err()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}

	// Schedule order: descending cost, ties broken by ascending index
	// so the order is total and deterministic.
	order := make([]Task, n)
	copy(order, tasks)
	sort.SliceStable(order, func(a, b int) bool {
		if order[a].Cost != order[b].Cost { //mtlint:allow floatcmp ordering comparison only; equal costs fall through to the index tie-break
			return order[a].Cost > order[b].Cost
		}
		return order[a].Index < order[b].Index
	})

	if workers == 1 {
		// Sequential fast path: no goroutines, same cost-major order.
		for _, t := range order {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(ctx, t.Index); err != nil {
				return err
			}
		}
		return nil
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		mu       sync.Mutex
		firstErr error
		errIdx   = -1
	)
	fail := func(i int, err error) {
		mu.Lock()
		if errIdx < 0 || i < errIdx {
			errIdx, firstErr = i, err
		}
		mu.Unlock()
		cancel() // one failing task aborts the run
	}

	// LPT seeding: deal the cost-major order onto the least-loaded
	// seed list, reverse each into ascending-cost order so the owner's
	// LIFO pop starts with its costliest task, and only then construct
	// the deques — the queues are fully formed before any worker can
	// see them, so no seed write ever races a steal.
	seeds := make([][]Task, workers)
	loads := make([]float64, workers)
	for _, t := range order {
		w := 0
		for v := 1; v < workers; v++ {
			if loads[v] < loads[w] {
				w = v
			}
		}
		seeds[w] = append(seeds[w], t)
		// Zero-cost tasks still occupy a slot: bias the load by a hair
		// so unknown-cost work deals round-robin instead of piling onto
		// worker 0.
		loads[w] += t.Cost + 1e-9
	}
	deques := make([]*deque, workers)
	for w, s := range seeds {
		for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
			s[i], s[j] = s[j], s[i]
		}
		deques[w] = &deque{tasks: s}
	}

	// Tasks never spawn tasks, so a full scan finding every deque empty
	// means no work remains and the worker can exit.
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(self int) {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return
				}
				t, ok := deques[self].popTop()
				if !ok {
					// Deterministic victim scan from the next worker up.
					for off := 1; off < workers && !ok; off++ {
						t, ok = deques[(self+off)%workers].stealBottom()
					}
					if !ok {
						return
					}
				}
				if err := fn(ctx, t.Index); err != nil {
					fail(t.Index, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	mu.Lock()
	err := firstErr
	mu.Unlock()
	if err != nil {
		return err
	}
	// Workers only cancel after recording an error, so a cancelled
	// context with no recorded error means the parent was cancelled.
	return ctx.Err()
}

// ForEach runs fn(ctx, i) for every i in [0, n) across at most
// `workers` goroutines (<= 0 selects GOMAXPROCS). It is RunTasks with
// one equal-cost task per index: a single worker runs the indices in
// order, several are dealt them round-robin and steal the leftovers.
// Error and cancellation semantics are RunTasks's: the lowest-index
// failure is returned and cancels the shared context, and on error
// every slot is undefined.
func ForEach(ctx context.Context, workers, n int, fn func(ctx context.Context, i int) error) error {
	tasks := make([]Task, max(n, 0))
	for i := range tasks {
		tasks[i].Index = i
	}
	return RunTasks(ctx, workers, tasks, fn)
}
