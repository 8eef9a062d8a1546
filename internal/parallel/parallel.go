// Package parallel schedules simulation work across worker
// goroutines. Pool, one FIFO job queue drained by a fixed set of
// workers, is the only worker implementation: the serving stack keeps
// one for its lifetime, and ForEach runs a bounded sweep on a private
// one. Sweeps stay deterministic: work is identified by index, results
// are slotted by index (never by arrival order), and a failure cancels
// the remaining work while the lowest-index error — not the earliest —
// is the one reported. Every goroutine the package spawns joins
// through a WaitGroup on Pool's Close drain path.
package parallel

import (
	"context"
	"runtime"
)

// Workers resolves a requested worker count: n <= 0 selects
// GOMAXPROCS. NewPool and ForEach resolve theirs by this rule.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// ForEach runs fn(ctx, i) for every i in [0, n) across at most
// `workers` goroutines (<= 0 selects GOMAXPROCS) and returns after all
// started work has finished. The indices go onto a private Pool in
// ascending order, so the workers take them in that order.
//
// On failure, the error with the lowest index is returned — a
// deterministic choice regardless of interleaving — and the shared
// context is cancelled so still-running calls can abort early and
// queued ones return without running fn. On error, callers must treat
// every slot as undefined. If the parent context is cancelled, its
// error is returned.
func ForEach(ctx context.Context, workers, n int, fn func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, n) // slot i is written only by index i's job
	p := NewPool(min(Workers(workers), n))
	for i := range n {
		err := p.Submit(func() {
			if ctx.Err() != nil {
				return
			}
			if errs[i] = fn(ctx, i); errs[i] != nil {
				cancel() // one failing index aborts the run
			}
		})
		if err != nil {
			p.Close()
			return err
		}
	}
	p.Close()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	// Jobs only cancel after recording an error, so a cancelled context
	// with no recorded error means the parent was cancelled.
	return ctx.Err()
}
