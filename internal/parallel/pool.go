package parallel

import (
	"errors"
	"sync"
)

// Pool is the long-running counterpart of RunTasks: a fixed set of
// workers draining a shared job queue for the lifetime of a server
// rather than of one sweep. RunTasks knows every task and its cost up
// front and starts the longest first; a server's jobs — one
// already-formed lockstep batch each — arrive over time, so they run
// from a single FIFO under one mutex. Fairness falls out of FIFO
// order: requests run in arrival order, which also keeps tail latency
// under saturation an honest function of queue depth.
//
// ErrPoolClosed aside, Submit never blocks and never sheds — admission
// control belongs to the caller (the serve layer bounds in-flight work
// and answers 429 beyond its watermark) so the pool cannot silently
// drop a job someone is waiting on.
type Pool struct {
	workers int
	mu      sync.Mutex
	cond    *sync.Cond
	queue   []func() // guarded by mu
	closed  bool     // guarded by mu
	wg      sync.WaitGroup
}

// ErrPoolClosed is returned by Submit after Close has begun.
var ErrPoolClosed = errors.New("parallel: pool closed")

// NewPool starts a pool with the given number of workers (at least 1).
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	p := &Pool{workers: workers}
	p.cond = sync.NewCond(&p.mu)
	for w := 0; w < workers; w++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for {
		p.mu.Lock()
		for len(p.queue) == 0 && !p.closed {
			p.cond.Wait()
		}
		if len(p.queue) == 0 && p.closed {
			p.mu.Unlock()
			return
		}
		job := p.queue[0]
		p.queue = p.queue[1:]
		p.mu.Unlock()
		job()
	}
}

// Submit enqueues a job. It returns ErrPoolClosed once Close has begun;
// otherwise the job is guaranteed to run before Close returns.
func (p *Pool) Submit(job func()) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrPoolClosed
	}
	p.queue = append(p.queue, job)
	p.mu.Unlock()
	p.cond.Signal()
	return nil
}

// Workers returns the pool's fixed worker count.
func (p *Pool) Workers() int { return p.workers }

// Close drains the pool: no new jobs are accepted, every job already
// accepted runs to completion, and the workers exit. It is the
// graceful-shutdown half of the serve layer's SIGTERM handling and is
// safe to call more than once.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.cond.Broadcast()
	p.wg.Wait()
}
