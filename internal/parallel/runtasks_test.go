package parallel

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestRunTasksRunsAll checks every task runs exactly once at several
// worker counts, including workers exceeding the task count.
func TestRunTasksRunsAll(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		const n = 100
		tasks := make([]Task, n)
		for i := range tasks {
			tasks[i] = Task{Index: i, Cost: float64((i * 37) % 11)}
		}
		var hits [n]atomic.Int64
		err := RunTasks(context.Background(), workers, tasks, func(_ context.Context, i int) error {
			hits[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range hits {
			if c := hits[i].Load(); c != 1 {
				t.Fatalf("workers=%d: task %d ran %d times", workers, i, c)
			}
		}
	}
}

// TestRunTasksSkewedSeeding checks skewed cost profiles: one giant
// task among zero-cost ones with a worker per task, all-zero costs,
// and as many workers as tasks must each run every task exactly once.
func TestRunTasksSkewedSeeding(t *testing.T) {
	cases := []struct {
		name    string
		workers int
		costs   func(i int) float64
	}{
		{"one-giant-rest-zero", 16, func(i int) float64 {
			if i == 0 {
				return 1e6
			}
			return 0
		}},
		{"all-zero-round-robin", 5, func(int) float64 { return 0 }},
		{"workers-equal-tasks", 16, func(i int) float64 { return float64(i) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			const n = 16
			tasks := make([]Task, n)
			for i := range tasks {
				tasks[i] = Task{Index: i, Cost: tc.costs(i)}
			}
			var hits [n]atomic.Int64
			err := RunTasks(context.Background(), tc.workers, tasks, func(_ context.Context, i int) error {
				hits[i].Add(1)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := range hits {
				if c := hits[i].Load(); c != 1 {
					t.Fatalf("task %d ran %d times", i, c)
				}
			}
		})
	}
}

// TestRunTasksDeterministicResults is the determinism-order guard for
// the scheduler: with per-task durations chosen to vary the
// interleaving, index-slotted results must be identical at every
// worker count and across repetitions — interleaving may change who
// runs a task and when, never what the task computes or where its
// result lands.
func TestRunTasksDeterministicResults(t *testing.T) {
	const n = 64
	tasks := make([]Task, n)
	for i := range tasks {
		tasks[i] = Task{Index: i, Cost: float64((i * 13) % 7)}
	}
	run := func(workers, rep int) [n]int {
		var out [n]int
		err := RunTasks(context.Background(), workers, tasks, func(_ context.Context, i int) error {
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

// TestRunTasksSequentialOrderIsCostMajor pins the schedule order:
// descending cost, ties broken by ascending index — the order in which
// workers take tasks off the shared cursor.
func TestRunTasksSequentialOrderIsCostMajor(t *testing.T) {
	tasks := []Task{
		{Index: 0, Cost: 1},
		{Index: 1, Cost: 5},
		{Index: 2, Cost: 5},
		{Index: 3, Cost: 0},
		{Index: 4, Cost: 9},
	}
	var order []int
	err := RunTasks(context.Background(), 1, tasks, func(_ context.Context, i int) error {
		order = append(order, i)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{4, 1, 2, 0, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("sequential order %v, want %v", order, want)
		}
	}
}

// TestRunTasksLowestIndexError mirrors the ForEach error contract on
// the weighted entry point.
func TestRunTasksLowestIndexError(t *testing.T) {
	const n = 50
	tasks := make([]Task, n)
	for i := range tasks {
		// Identical costs: the schedule is index order, so index 7 fails
		// before 23 and 41 under one worker.
		tasks[i] = Task{Index: i}
	}
	for _, workers := range []int{1, 4} {
		err := RunTasks(context.Background(), workers, tasks, func(_ context.Context, i int) error {
			if i == 7 || i == 23 || i == 41 {
				return fmt.Errorf("cell %d failed", i)
			}
			return nil
		})
		if err == nil {
			t.Fatalf("workers=%d: error swallowed", workers)
		}
		got := err.Error()
		if workers == 1 && got != "cell 7 failed" {
			t.Fatalf("sequential: got %q, want cell 7", got)
		}
		if got != "cell 7 failed" && got != "cell 23 failed" && got != "cell 41 failed" {
			t.Fatalf("workers=%d: unexpected error %q", workers, got)
		}
	}
}

// TestRunTasksStealsFromBlockedWorker is the starvation guard: a worker
// blocked in one long-running task must not strand the remaining work.
// The long task runs first (highest cost) and blocks until every small
// task has finished, so the run can only complete if the other worker
// takes all of them.
func TestRunTasksStealsFromBlockedWorker(t *testing.T) {
	const smalls = 20
	var done sync.WaitGroup
	done.Add(smalls)
	release := make(chan struct{})
	go func() {
		done.Wait()
		close(release)
	}()

	tasks := make([]Task, smalls+1)
	tasks[0] = Task{Index: 0, Cost: 10} // the blocker: scheduled first
	for i := 1; i <= smalls; i++ {
		tasks[i] = Task{Index: i, Cost: 1}
	}
	err := RunTasks(context.Background(), 2, tasks, func(_ context.Context, i int) error {
		if i == 0 {
			select {
			case <-release:
				return nil
			case <-time.After(20 * time.Second):
				return fmt.Errorf("starvation: blocked worker's queued tasks were never stolen")
			}
		}
		done.Done()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRunTasksZeroAndParentCancel covers the empty input and
// pre-cancelled parent edges.
func TestRunTasksZeroAndParentCancel(t *testing.T) {
	if err := RunTasks(context.Background(), 4, nil, func(context.Context, int) error {
		t.Fatal("fn called for empty task list")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := RunTasks(ctx, 4, []Task{{Index: 0}}, func(context.Context, int) error { return nil })
	if err == nil {
		t.Fatal("pre-cancelled parent not reported")
	}
}
