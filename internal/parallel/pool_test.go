package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestPoolRunsEveryJob(t *testing.T) {
	p := NewPool(4)
	var ran atomic.Int64
	const jobs = 200
	for i := 0; i < jobs; i++ {
		if err := p.Submit(func() { ran.Add(1) }); err != nil {
			t.Fatal(err)
		}
	}
	p.Close()
	if n := ran.Load(); n != jobs {
		t.Fatalf("%d of %d jobs ran", n, jobs)
	}
}

// TestNewPoolZeroSelectsGOMAXPROCS pins the zero-worker rule NewPool
// shares with ForEach and parallel.Workers: 0 means GOMAXPROCS, not 1.
func TestNewPoolZeroSelectsGOMAXPROCS(t *testing.T) {
	p := NewPool(0)
	defer p.Close()
	if got, want := p.Workers(), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("NewPool(0).Workers() = %d, want GOMAXPROCS = %d", got, want)
	}
}

func TestPoolCloseDrainsAcceptedJobs(t *testing.T) {
	// One worker, a slow head job, then a tail of quick jobs: Close must
	// not return until the whole accepted queue has drained.
	p := NewPool(1)
	var ran atomic.Int64
	gate := make(chan struct{})
	if err := p.Submit(func() { <-gate; ran.Add(1) }); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := p.Submit(func() { ran.Add(1) }); err != nil {
			t.Fatal(err)
		}
	}
	go close(gate)
	p.Close()
	if n := ran.Load(); n != 11 {
		t.Fatalf("Close returned with %d of 11 jobs run", n)
	}
}

func TestPoolSubmitAfterClose(t *testing.T) {
	p := NewPool(1)
	p.Close()
	if err := p.Submit(func() {}); err != ErrPoolClosed {
		t.Fatalf("Submit after Close = %v, want ErrPoolClosed", err)
	}
	p.Close() // idempotent
}

func TestPoolConcurrentSubmitters(t *testing.T) {
	p := NewPool(3)
	var ran atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := p.Submit(func() { ran.Add(1) }); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	p.Close()
	if n := ran.Load(); n != 400 {
		t.Fatalf("%d of 400 jobs ran", n)
	}
}
