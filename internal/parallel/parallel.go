// Package parallel schedules simulation work across worker
// goroutines: RunTasks/ForEach for bounded sweeps, Pool for the
// serving stack. Sweeps stay deterministic: work is identified by
// index, results are slotted by index (never by arrival order), and
// the first error — by index, not by time — cancels the remaining work
// and is the one reported. Every goroutine the package spawns joins
// through a WaitGroup on an explicit drain path.
package parallel

import (
	"context"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// Task is one schedulable unit of work: an index to hand to the work
// function plus a nonnegative cost estimate in arbitrary consistent
// units (simulated seconds, cell counts — only ratios matter). Unknown
// costs may be zero; equal costs fall back to index order.
type Task struct {
	Index int
	Cost  float64
}

// Workers resolves a requested worker count: n <= 0 selects
// GOMAXPROCS. RunTasks and ForEach resolve theirs by this rule.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// RunTasks executes fn(ctx, t.Index) for every task across at most
// `workers` goroutines (<= 0 selects GOMAXPROCS) and returns after all
// started work has finished.
//
// Scheduling is greedy LPT list scheduling: the tasks are sorted by
// descending cost, ties by ascending index, and every worker takes the
// next task in that order from one shared atomic cursor. The longest
// work therefore starts first and the straggler tail is at most one
// task long. One worker runs the same loop inline, without goroutines.
// No scheduling decision consults wall-clock time or random state.
//
// On failure, the error with the lowest task index is returned — a
// deterministic choice regardless of interleaving — and the shared
// context is cancelled so still-running calls can abort early. Tasks
// not yet started when a failure is recorded may never run; on error,
// callers must treat every slot as undefined. If the parent context is
// cancelled, its error is returned.
func RunTasks(ctx context.Context, workers int, tasks []Task, fn func(ctx context.Context, i int) error) error {
	n := len(tasks)
	if n == 0 {
		return ctx.Err()
	}
	workers = min(Workers(workers), n)

	order := make([]Task, n)
	copy(order, tasks)
	sort.SliceStable(order, func(a, b int) bool {
		if order[a].Cost != order[b].Cost { //mtlint:allow floatcmp ordering comparison only; equal costs fall through to the index tie-break
			return order[a].Cost > order[b].Cost
		}
		return order[a].Index < order[b].Index
	})

	// work takes tasks off the shared cursor until the queue is empty,
	// ctx is cancelled or a task fails, and reports the failing task's
	// index (-1 if none failed).
	var next atomic.Int64
	work := func(ctx context.Context) (int, error) {
		for {
			if err := ctx.Err(); err != nil {
				return -1, err
			}
			i := int(next.Add(1) - 1)
			if i >= n {
				return -1, nil
			}
			if err := fn(ctx, order[i].Index); err != nil {
				return order[i].Index, err
			}
		}
	}
	if workers == 1 {
		_, err := work(ctx)
		return err
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		mu       sync.Mutex
		firstErr error
		errIdx   = -1
		wg       sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			i, err := work(ctx)
			if i < 0 {
				return
			}
			mu.Lock()
			if errIdx < 0 || i < errIdx {
				errIdx, firstErr = i, err
			}
			mu.Unlock()
			cancel() // one failing task aborts the run
		}()
	}
	wg.Wait()

	if firstErr != nil {
		return firstErr
	}
	// Workers only cancel after recording an error, so a cancelled
	// context with no recorded error means the parent was cancelled.
	return ctx.Err()
}

// ForEach runs fn(ctx, i) for every i in [0, n) across at most
// `workers` goroutines (<= 0 selects GOMAXPROCS). It is RunTasks with
// one equal-cost task per index, so the workers take the indices in
// ascending order. Error and cancellation semantics are RunTasks's:
// the lowest-index failure is returned and cancels the shared context,
// and on error every slot is undefined.
func ForEach(ctx context.Context, workers, n int, fn func(ctx context.Context, i int) error) error {
	tasks := make([]Task, max(n, 0))
	for i := range tasks {
		tasks[i].Index = i
	}
	return RunTasks(ctx, workers, tasks, fn)
}
