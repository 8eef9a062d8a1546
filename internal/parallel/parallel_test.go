package parallel

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestForEachRunsAll(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		const n = 100
		var mu sync.Mutex
		seen := make(map[int]int)
		err := ForEach(context.Background(), workers, n, func(_ context.Context, i int) error {
			mu.Lock()
			seen[i]++
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(seen) != n {
			t.Fatalf("workers=%d: ran %d of %d indices", workers, len(seen), n)
		}
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestForEachSlotsAreDeterministic(t *testing.T) {
	const n = 64
	out := make([]int, n)
	err := ForEach(context.Background(), 8, n, func(_ context.Context, i int) error {
		out[i] = i * i // each worker writes only its own slot
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("slot %d holds %d, want %d", i, v, i*i)
		}
	}
}

func TestForEachReturnsLowestIndexError(t *testing.T) {
	boom := func(i int) error { return fmt.Errorf("cell %d failed", i) }
	for _, workers := range []int{1, 4} {
		err := ForEach(context.Background(), workers, 50, func(_ context.Context, i int) error {
			if i == 7 || i == 23 || i == 41 {
				return boom(i)
			}
			return nil
		})
		if err == nil {
			t.Fatalf("workers=%d: error swallowed", workers)
		}
		// With one worker, index 7 fails first and nothing later runs.
		// With several, any of the failing cells may run, but the
		// reported error must be the lowest-indexed one that failed.
		if got := err.Error(); got != "cell 7 failed" && workers > 1 &&
			got != "cell 23 failed" && got != "cell 41 failed" {
			t.Fatalf("workers=%d: unexpected error %q", workers, got)
		}
		if workers == 1 && err.Error() != "cell 7 failed" {
			t.Fatalf("sequential: got %q, want cell 7", err.Error())
		}
	}
}

func TestForEachErrorCancelsRemaining(t *testing.T) {
	var started atomic.Int64
	sentinel := errors.New("boom")
	err := ForEach(context.Background(), 2, 1000, func(ctx context.Context, i int) error {
		started.Add(1)
		if i == 0 {
			return sentinel
		}
		// Yield so every worker interleaves instead of draining the
		// queue in one scheduler quantum; the cancellation check runs
		// between tasks, so interleaved workers observe it early.
		time.Sleep(10 * time.Microsecond)
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("got %v, want sentinel", err)
	}
	if n := started.Load(); n > 100 {
		t.Fatalf("cancellation ineffective: %d cells started after failure", n)
	}
}

func TestForEachParentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	done := make(chan error, 1)
	go func() {
		done <- ForEach(ctx, 2, 100000, func(ctx context.Context, i int) error {
			ran.Add(1)
			time.Sleep(100 * time.Microsecond)
			return nil
		})
	}()
	time.Sleep(2 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("got %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pool did not stop after parent cancellation")
	}
	if ran.Load() == 100000 {
		t.Fatal("cancellation had no effect")
	}
}

func TestForEachZeroItems(t *testing.T) {
	if err := ForEach(context.Background(), 4, 0, func(context.Context, int) error {
		t.Fatal("fn called for empty range")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
