// Package serve is the long-running simulation service behind
// cmd/thermald: an HTTP/JSON API that accepts simulation and
// sweep-cell requests from many concurrent clients, shards them across
// a persistent internal/parallel pool, coalesces same-(Template, dt)
// cells from different clients into shared lockstep batches (see
// batcher.go), and fronts everything with a content-addressed LRU of
// finished results.
//
// The load-bearing property is per-request determinism: the response
// bytes for a cell are a pure function of its canonical spec —
// independent of batching, arrival order, cache state, and worker
// count. The argument has three legs, each separately tested:
//
//  1. Every cell simulation is deterministic (the sweep engine's
//     guarantee since PR 1, enforced by mtlint's determinism analyzer
//     — this package opts in below).
//  2. Lockstep batching is bit-identical to sequential stepping at any
//     width and any packing (PR 3's invariant), so it cannot matter
//     which requests happened to share a panel.
//  3. Responses are rendered by exactly one encoder (encodeResult) and
//     the cache stores those bytes verbatim, so hit and miss paths are
//     byte-equal by construction.
//
// Wall-clock time exists in this package only where the contract
// allows: the batching window (changes when work runs, never what it
// computes) and operational counters. Simulation logic gets time
// exclusively from tick counters.
//
//mtlint:deterministic
package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"multitherm/internal/core"
	"multitherm/internal/memo"
	"multitherm/internal/parallel"
	"multitherm/internal/units"
)

// Config sizes the server.
type Config struct {
	// Workers is the persistent pool width; 0 selects GOMAXPROCS.
	Workers int
	// Window is how long a lone cell waits for batchmates; 0 disables
	// cross-request coalescing.
	Window time.Duration
	// CacheEntries bounds the content-addressed result cache; 0
	// disables caching.
	CacheEntries int
	// MaxInflightCells is the admission watermark: once this many cells
	// are queued or running, new work is shed with 429. 0 selects 1024.
	MaxInflightCells int
	// DefaultSimTimeS is the simulated time for requests that omit it;
	// 0 selects 0.05 s.
	DefaultSimTimeS float64
	// MaxSimTimeS caps per-cell simulated time; 0 selects 2 s.
	MaxSimTimeS float64
}

func (c Config) defaultSimTime() float64 {
	if c.DefaultSimTimeS > 0 {
		return c.DefaultSimTimeS
	}
	return 0.05
}

func (c Config) maxSimTime() float64 {
	if c.MaxSimTimeS > 0 {
		return c.MaxSimTimeS
	}
	return 2.0
}

func (c Config) watermark() int64 {
	if c.MaxInflightCells > 0 {
		return int64(c.MaxInflightCells)
	}
	return 1024
}

// DefaultCacheEntries bounds the result cache when the caller does not:
// cached cell results are a few hundred bytes each, so the default
// costs single-digit megabytes at worst.
const DefaultCacheEntries = 4096

// Server owns the pool, the batcher, and the result cache. Create with
// New, expose with Handler, stop with Close (after draining HTTP).
type Server struct {
	cfg     Config
	pool    *parallel.Pool
	batcher *batcher
	cache   *memo.LRU[[32]byte, []byte]
	mux     *http.ServeMux

	inflight  atomic.Int64 // cells queued or running
	shed      atomic.Int64 // requests answered 429
	completed atomic.Int64 // cells finished (any outcome)
}

// New builds a server and starts its worker pool.
func New(cfg Config) *Server {
	pool := parallel.NewPool(cfg.Workers)
	s := &Server{
		cfg:     cfg,
		pool:    pool,
		batcher: newBatcher(pool, cfg.Window),
		cache:   memo.NewLRU[[32]byte, []byte](cfg.CacheEntries),
		mux:     http.NewServeMux(),
	}
	s.mux.HandleFunc("POST /v1/sim", s.handleSim)
	s.mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	s.mux.HandleFunc("POST /v1/sim/trace", s.handleTrace)
	s.mux.HandleFunc("POST /v1/admin/flush", s.handleFlush)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s
}

// Handler returns the HTTP surface.
func (s *Server) Handler() http.Handler { return s.mux }

// Close drains the server: pending batches flush immediately, every
// accepted cell runs to completion, then the workers exit. Callers
// must stop the HTTP listener first (http.Server.Shutdown) so no new
// cells arrive during the drain.
func (s *Server) Close() {
	s.batcher.flushAll()
	s.pool.Close()
}

// httpError answers with a JSON error body.
func httpError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	body, _ := json.Marshal(map[string]string{"error": msg})
	w.Write(body)
}

// shedResponse answers 429 with a Retry-After hint — the load-shedding
// contract past the admission watermark.
func (s *Server) shedResponse(w http.ResponseWriter) {
	s.shed.Add(1)
	w.Header().Set("Retry-After", "1")
	httpError(w, http.StatusTooManyRequests, "server at capacity; retry after the queue drains")
}

// admit reserves n cells against the watermark, or reports shedding.
func (s *Server) admit(n int64) bool {
	if s.inflight.Add(n) > s.cfg.watermark() {
		s.inflight.Add(-n)
		return false
	}
	return true
}

// release returns n admitted cells.
func (s *Server) release(n int64) {
	s.inflight.Add(-n)
	s.completed.Add(n)
}

// writeResult writes canonical cell bytes. The bytes come from
// encodeResult whether they were computed this request or replayed
// from the cache, so equal cells always answer with equal bodies.
func writeResult(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

// runCell resolves a cell's bytes: cache probe, then batch join. The
// caller has already admitted the cell.
func (s *Server) runCell(r *http.Request, c *cell) ([]byte, error) {
	j := s.batcher.submit(c)
	select {
	case res := <-j.done:
		if res.err != nil {
			return nil, res.err
		}
		s.cache.Put(c.key, res.bytes)
		return res.bytes, nil
	case <-r.Context().Done():
		// The requester is gone; the batch still runs (done is buffered)
		// and its result is simply dropped — the cache misses the write,
		// nothing blocks.
		return nil, r.Context().Err()
	}
}

// handleSim answers POST /v1/sim: one cell, one canonical JSON body.
func (s *Server) handleSim(w http.ResponseWriter, r *http.Request) {
	var spec CellSpec
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("decoding request: %v", err))
		return
	}
	c, err := s.resolveCell(spec, 0)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	if body, ok := s.cache.Get(c.key); ok {
		writeResult(w, body)
		return
	}
	if !s.admit(1) {
		s.shedResponse(w)
		return
	}
	defer s.release(1)
	body, err := s.runCell(r, c)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeResult(w, body)
}

// handleSweep answers POST /v1/sweep: every cell resolved up front,
// cache hits answered from stored bytes, misses submitted together so
// they coalesce with each other and with every other in-flight
// request, results assembled in request order.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("decoding request: %v", err))
		return
	}
	if len(req.Cells) == 0 {
		httpError(w, http.StatusBadRequest, "sweep request has no cells")
		return
	}
	if len(req.Cells) > MaxSweepCells {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("sweep request has %d cells; the cap is %d", len(req.Cells), MaxSweepCells))
		return
	}
	cells := make([]*cell, len(req.Cells))
	for i, spec := range req.Cells {
		c, err := s.resolveCell(spec, req.SimTimeS)
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("cell %d: %v", i, err))
			return
		}
		cells[i] = c
	}

	bodies := make([][]byte, len(cells))
	missIdx := make([]int, 0, len(cells))
	for i, c := range cells {
		if body, ok := s.cache.Get(c.key); ok {
			bodies[i] = body
		} else {
			missIdx = append(missIdx, i)
		}
	}
	if len(missIdx) > 0 {
		if !s.admit(int64(len(missIdx))) {
			s.shedResponse(w)
			return
		}
		defer s.release(int64(len(missIdx)))
		joins := make([]*join, len(missIdx))
		for k, i := range missIdx {
			joins[k] = s.batcher.submit(cells[i])
		}
		for k, i := range missIdx {
			select {
			case res := <-joins[k].done:
				if res.err != nil {
					httpError(w, http.StatusInternalServerError,
						fmt.Sprintf("cell %d: %v", i, res.err))
					return
				}
				s.cache.Put(cells[i].key, res.bytes)
				bodies[i] = res.bytes
			case <-r.Context().Done():
				return
			}
		}
	}

	w.Header().Set("Content-Type", "application/json")
	w.Write([]byte(`{"cells":[`))
	for i, body := range bodies {
		if i > 0 {
			w.Write([]byte{','})
		}
		w.Write(body)
	}
	w.Write([]byte(`]}`))
}

// traceLine is one NDJSON record of the streaming trace: the control
// tick, simulated time, hottest block temperature, and the per-core
// DVFS scales and stall flags the policy commanded.
type traceLine struct {
	Tick   int64     `json:"tick"`
	TimeS  float64   `json:"t_s"`
	MaxC   float64   `json:"max_c"`
	Scales []float64 `json:"scales"`
	Stall  []bool    `json:"stall"`
}

// handleTrace answers POST /v1/sim/trace with an NDJSON stream: one
// trace line per `every` control ticks, then a final line carrying the
// canonical cell result under a "result" key. Traces bypass the result
// cache (the stream is the product) but still count against admission
// and run on the pool, so a flood of trace requests sheds like any
// other load. The stream bytes are deterministic: lines are produced
// by a single probe in tick order and rendered by one encoder.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	var req TraceRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("decoding request: %v", err))
		return
	}
	if req.Every < 0 || req.Every > MaxTraceEvery {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("trace every %d out of range [0, %d]", req.Every, MaxTraceEvery))
		return
	}
	c, err := s.resolveCell(req.CellSpec, 0)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	every := int64(req.Every)
	if every == 0 {
		every = 16
	}
	if !s.admit(1) {
		s.shedResponse(w)
		return
	}
	defer s.release(1)

	lines := make(chan traceLine, 64)
	final := make(chan joinResult, 1)
	job := func() {
		defer close(lines)
		runner, err := c.newRunner()
		if err != nil {
			final <- joinResult{err: err}
			return
		}
		runner.SetProbe(func(now units.Seconds, tick int64, blockTemps units.TempVec, cmds []core.CoreCommand, _ []int) {
			if tick%every != 0 {
				return
			}
			maxC, _ := blockTemps.Max()
			line := traceLine{
				Tick:   tick,
				TimeS:  float64(now),
				MaxC:   float64(maxC),
				Scales: make([]float64, len(cmds)),
				Stall:  make([]bool, len(cmds)),
			}
			for i, cmd := range cmds {
				line.Scales[i] = float64(cmd.Scale)
				line.Stall[i] = cmd.Stall
			}
			lines <- line
		})
		m, err := runner.Run()
		if err != nil {
			final <- joinResult{err: err}
			return
		}
		body, err := encodeResult(c, m)
		final <- joinResult{bytes: body, err: err}
	}
	if err := s.pool.Submit(job); err != nil {
		httpError(w, http.StatusServiceUnavailable, "serve: draining")
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	// Drain every line even if the client went away: the probe blocks on
	// the lines channel, so abandoning it would wedge a pool worker.
	// Encode errors after a disconnect are deliberately ignored.
	for line := range lines {
		_ = enc.Encode(line)
		if flusher != nil {
			flusher.Flush()
		}
	}
	res := <-final
	if res.err != nil {
		_ = enc.Encode(map[string]string{"error": res.err.Error()})
		return
	}
	w.Write([]byte(`{"result":`))
	w.Write(res.bytes)
	w.Write([]byte("}\n"))
}

// Stats is the GET /v1/stats body: admission, cache, and batching
// counters. Operational observability only — nothing here feeds back
// into simulation results.
type Stats struct {
	InflightCells  int64         `json:"inflight_cells"`
	Watermark      int64         `json:"watermark"`
	ShedRequests   int64         `json:"shed_requests"`
	CompletedCells int64         `json:"completed_cells"`
	Workers        int           `json:"workers"`
	Cache          memo.LRUStats `json:"cache"`
	Batching       batchStats    `json:"batching"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := Stats{
		InflightCells:  s.inflight.Load(),
		Watermark:      s.cfg.watermark(),
		ShedRequests:   s.shed.Load(),
		CompletedCells: s.completed.Load(),
		Workers:        s.pool.Workers(),
		Cache:          s.cache.Stats(),
		Batching:       s.batcher.stats(),
	}
	body, err := json.Marshal(st)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeResult(w, body)
}

// handleFlush empties the result cache — the cold-start switch the
// bench harness and tests use to measure miss-path cost on a warm
// process.
func (s *Server) handleFlush(w http.ResponseWriter, r *http.Request) {
	n := s.cache.Flush()
	body, _ := json.Marshal(map[string]int{"flushed": n})
	writeResult(w, body)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeResult(w, []byte(`{"ok":true}`))
}
