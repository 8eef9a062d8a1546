package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// The TestRunTasks* tests cover ForEach. They keep the names they had
// when they covered RunTasks, the cost-sorted queue that ForEach on a
// private Pool replaced, and each checks a side of the contract the
// TestForEach* tests leave open.

// TestRunTasksRunsAll checks every index runs exactly once at several
// worker counts, including more workers than indices, and that no more
// calls run at once than the resolved worker count allows.
func TestRunTasksRunsAll(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64, 128} {
		const n = 100
		var hits [n]atomic.Int64
		var running, peak atomic.Int64
		err := ForEach(context.Background(), workers, n, func(_ context.Context, i int) error {
			cur := running.Add(1)
			for p := peak.Load(); cur > p && !peak.CompareAndSwap(p, cur); p = peak.Load() {
			}
			hits[i].Add(1)
			runtime.Gosched() // let other workers overlap this call
			running.Add(-1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range hits {
			if c := hits[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
		if p, limit := peak.Load(), int64(min(Workers(workers), n)); p > limit {
			t.Fatalf("workers=%d: %d calls ran at once, limit %d", workers, p, limit)
		}
	}
}

// TestRunTasksSkewedSeeding checks skewed run-time profiles: one slow
// index among instant ones with a worker per index, all-instant indices
// with fewer workers than indices, and as many workers as indices with
// run times rising by index must each run every index exactly once.
func TestRunTasksSkewedSeeding(t *testing.T) {
	cases := []struct {
		name    string
		workers int
		delay   func(i int) time.Duration
	}{
		{"one-giant-rest-zero", 16, func(i int) time.Duration {
			if i == 0 {
				return 5 * time.Millisecond
			}
			return 0
		}},
		{"all-zero-round-robin", 5, func(int) time.Duration { return 0 }},
		{"workers-equal-tasks", 16, func(i int) time.Duration { return time.Duration(i) * 50 * time.Microsecond }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			const n = 16
			var hits [n]atomic.Int64
			err := ForEach(context.Background(), tc.workers, n, func(_ context.Context, i int) error {
				time.Sleep(tc.delay(i))
				hits[i].Add(1)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := range hits {
				if c := hits[i].Load(); c != 1 {
					t.Fatalf("index %d ran %d times", i, c)
				}
			}
		})
	}
}

// TestRunTasksDeterministicResults is the determinism-order guard for
// the scheduler: with per-index durations chosen to vary the
// interleaving, index-slotted results must be identical at every
// worker count and across repetitions — interleaving may change who
// runs an index and when, never what it computes or where its result
// lands.
func TestRunTasksDeterministicResults(t *testing.T) {
	const n = 64
	run := func(workers, rep int) [n]int {
		var out [n]int
		err := ForEach(context.Background(), workers, n, func(_ context.Context, i int) error {
			// Durations vary with the repetition so every run interleaves
			// differently; the slotted output must not.
			time.Sleep(time.Duration((i*rep+rep)%5) * 100 * time.Microsecond)
			out[i] = i*i + 1
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d rep=%d: %v", workers, rep, err)
		}
		return out
	}
	want := run(1, 0)
	for _, workers := range []int{2, 4, 8} {
		for rep := 1; rep <= 3; rep++ {
			if got := run(workers, rep); got != want {
				t.Fatalf("workers=%d rep=%d: results differ from sequential", workers, rep)
			}
		}
	}
}

// TestRunTasksLowestIndexError checks the half of the error contract
// that interleaving can hide: when several indices fail, the lowest is
// reported even if it fails last. Indices 1, 2 and 3 all start before
// any returns, so the cancellation cannot skip one; 2 and 3 then fail,
// and 1 fails only after both have.
func TestRunTasksLowestIndexError(t *testing.T) {
	within := func(ch <-chan struct{}) bool {
		select {
		case <-ch:
			return true
		case <-time.After(20 * time.Second):
			return false
		}
	}
	for _, workers := range []int{3, 4, 8} {
		var arrived atomic.Int64
		allIn := make(chan struct{})
		failed := make(chan struct{}, 2)
		err := ForEach(context.Background(), workers, 50, func(_ context.Context, i int) error {
			if i < 1 || i > 3 {
				return nil
			}
			if arrived.Add(1) == 3 {
				close(allIn)
			}
			if !within(allIn) {
				return errors.New("indices 1-3 never ran together")
			}
			if i == 1 {
				if !within(failed) || !within(failed) {
					return errors.New("indices 2 and 3 never failed")
				}
			} else {
				defer func() { failed <- struct{}{} }()
			}
			return fmt.Errorf("cell %d failed", i)
		})
		if err == nil || err.Error() != "cell 1 failed" {
			t.Fatalf("workers=%d: got %v, want cell 1 failed", workers, err)
		}
	}
}

// TestRunTasksZeroAndParentCancel covers the edges TestForEachZeroItems
// leaves: a negative count runs nothing and succeeds, an empty range
// under a cancelled parent still reports the cancellation, and a
// one-worker run under a cancelled parent never calls fn.
func TestRunTasksZeroAndParentCancel(t *testing.T) {
	never := func(context.Context, int) error {
		t.Error("fn called")
		return nil
	}
	if err := ForEach(context.Background(), 4, -1, never); err != nil {
		t.Fatalf("negative count: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, n := range []int{0, 1} {
		if err := ForEach(ctx, 1, n, never); !errors.Is(err, context.Canceled) {
			t.Fatalf("n=%d under a cancelled parent: got %v, want context.Canceled", n, err)
		}
	}
}
