package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"sync"
	"time"

	"multitherm/internal/core"
	"multitherm/internal/floorplan"
	"multitherm/internal/memo"
	"multitherm/internal/metrics"
	"multitherm/internal/parallel"
	"multitherm/internal/serve"
	"multitherm/internal/sim"
	"multitherm/internal/units"
	"multitherm/internal/workload"
)

const (
	// serveWindow is cmd/thermald's -window default. The rest of the
	// server configuration takes thermald's zero-valued flag defaults;
	// serve.Config{} alone would turn the window and the cache off.
	serveWindow = 2 * time.Millisecond
	// serveSimTime is the server's default simulated time, which every
	// request inherits by leaving simtime_s out.
	serveSimTime = 0.05

	// hotPassRequests is how many requests each serve_hot client sends
	// per pass.
	hotPassRequests = 2000
	// requestTimeout fails a request rather than letting the run hang.
	requestTimeout = 60 * time.Second
)

// cellReq is one cell as a client requests it.
type cellReq struct {
	Spec serve.CellSpec `json:"spec"`
	Key  string         `json:"key"`
}

func paperCells() []cellReq {
	var out []cellReq
	for _, mix := range workload.Mixes {
		for _, p := range core.Taxonomy() {
			out = append(out, cellReq{Spec: serve.CellSpec{Workload: mix.Name, Policy: p.CLIName()},
				Key: mix.Name + "/" + p.CLIName()})
		}
	}
	return out
}

// newCellRunner builds a cell's simulation the way the server resolves
// it: sim.New for a paper cell, sim.NewTimeshared over the 3:2 tiled
// pool for a grid cell.
func newCellRunner(c cellReq, simTime units.Seconds) (*sim.Runner, core.PolicySpec, error) {
	policy, err := core.PolicyByName(c.Spec.Policy)
	if err != nil {
		return nil, policy, err
	}
	if c.Spec.Floorplan != "" {
		grid, err := floorplan.ParseGridSpec(c.Spec.Floorplan)
		if err != nil {
			return nil, policy, err
		}
		cfg, err := gridConfig(grid, simTime)
		if err != nil {
			return nil, policy, err
		}
		r, err := sim.NewTimeshared(cfg, cfg.Floorplan.Name, gridPopulation(cfg.Floorplan.NumCores()), policy, 0)
		return r, policy, err
	}
	mix, err := workload.MixByName(c.Spec.Workload)
	if err != nil {
		return nil, policy, err
	}
	cfg := sim.DefaultConfig()
	cfg.SimTime = simTime
	r, err := sim.New(cfg, mix, policy)
	return r, policy, err
}

// directResult computes a cell's response body off the HTTP path with
// sim.New (or sim.NewTimeshared) and Run.
func directResult(c cellReq) ([]byte, error) {
	r, policy, err := newCellRunner(c, serveSimTime)
	if err != nil {
		return nil, err
	}
	m, err := r.Run()
	if err != nil {
		return nil, err
	}
	return json.Marshal(cellResult(c, policy, m))
}

func cellResult(c cellReq, policy core.PolicySpec, m *metrics.Run) serve.CellResult {
	return serve.CellResult{
		Workload: c.Spec.Workload, Floorplan: c.Spec.Floorplan,
		Policy: policy.CLIName(), PolicyLabel: policy.String(), SimTimeS: serveSimTime,
		BIPS: float64(m.BIPS()), DutyCycle: float64(m.DutyCycle()), MaxTempC: float64(m.MaxTempC),
		EmergencyS: float64(m.EmergencySeconds), StallS: float64(m.StallSeconds),
		PenaltyS: float64(m.PenaltySeconds), WorkS: float64(m.WorkSeconds),
		Instructions: m.Instructions, Migrations: m.Migrations, Preemptions: m.Preemptions,
		Transitions: m.Transitions, PerCoreInstr: m.PerCoreInstr,
	}
}

// warmMemos builds the process memos a set of cells reads — templates,
// discretizations, recorded traces and warm-up states — by simulating
// one short run per distinct floorplan and mix, off the HTTP path, so
// the result cache stays cold.
func warmMemos(cells []cellReq) error {
	seen := map[string]bool{}
	for _, c := range cells {
		family := c.Spec.Workload + "/" + c.Spec.Floorplan
		if seen[family] {
			continue
		}
		seen[family] = true
		r, _, err := newCellRunner(c, warmSimTime)
		if err != nil {
			return err
		}
		if _, err := r.Run(); err != nil {
			return err
		}
	}
	return nil
}

// server is serve.New with thermald's defaults behind a loopback
// listener that speaks HTTP/1.1 and cleartext HTTP/2.
type server struct {
	srv  *serve.Server
	hs   *http.Server
	url  string
	done chan error
}

func startServer() (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	srv := serve.New(serve.Config{Window: serveWindow, CacheEntries: serve.DefaultCacheEntries})
	protocols := new(http.Protocols)
	protocols.SetHTTP1(true)
	protocols.SetUnencryptedHTTP2(true)
	s := &server{
		srv:  srv,
		hs:   &http.Server{Handler: srv.Handler(), Protocols: protocols},
		url:  "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// close stops the listener, drains open requests and the pool, and
// waits for the serving goroutine.
func (s *server) close() {
	if s == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s.hs.Shutdown(ctx) // a timeout here leaves nothing to retry
	s.srv.Close()
	<-s.done
}

// stats reads GET /v1/stats.
func (s *server) stats(c *http.Client) (serve.Stats, error) {
	var st serve.Stats
	resp, err := c.Get(s.url + "/v1/stats")
	if err != nil {
		return st, fmt.Errorf("reading server stats: %w", err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("reading server stats: %w", err)
	}
	return st, nil
}

// statsDelta records the server counters' change over the timed phase.
// traceCells are the trace requests completed in it: traces bypass the
// cache, so they are left out of serve.useful_cell_frac.
func statsDelta(b *bench, before, after serve.Stats, traceCells int64) {
	batches := float64(after.Batching.Batches - before.Batching.Batches)
	hits := float64(after.Cache.Hits - before.Cache.Hits)
	misses := float64(after.Cache.Misses - before.Cache.Misses)
	computed := float64(after.CompletedCells-before.CompletedCells) - float64(traceCells)
	b.set("serve.cells_completed", float64(after.CompletedCells-before.CompletedCells))
	b.set("serve.shed", float64(after.ShedRequests-before.ShedRequests))
	b.set("serve.widest_batch", float64(after.Batching.WidestBatch))
	b.set("serve.fallback_singles", float64(after.Batching.FallbackSingles-before.Batching.FallbackSingles))
	b.set("memo.evictions", float64(after.Cache.Evictions-before.Cache.Evictions))
	if batches > 0 {
		b.set("serve.lanes_per_batch", float64(after.Batching.Lanes-before.Batching.Lanes)/batches)
		b.set("serve.window_flush_frac", float64(after.Batching.WindowFlushes-before.Batching.WindowFlushes)/batches)
	}
	if hits+misses > 0 {
		b.set("memo.hit_ratio", hits/(hits+misses))
	}
	if computed > 0 {
		b.set("serve.useful_cell_frac", float64(after.Cache.Entries-before.Cache.Entries)/computed)
	}
}

// bodyLedger checks that every body served for one key is
// byte-identical, and keeps the first for the direct recomputation.
type bodyLedger struct {
	mu    sync.Mutex
	First map[string][]byte  `json:"first"`
	Cells map[string]cellReq `json:"cells"`
	Uses  map[string]int     `json:"uses"`
}

func newLedger() *bodyLedger {
	return &bodyLedger{First: map[string][]byte{}, Cells: map[string]cellReq{}, Uses: map[string]int{}}
}

// check records body for c and reports whether it matches the first
// body seen for c's key.
func (l *bodyLedger) check(c cellReq, body []byte) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.Uses[c.Key]++
	if prev, ok := l.First[c.Key]; ok {
		return bytes.Equal(prev, body)
	}
	l.First[c.Key] = append([]byte(nil), body...)
	l.Cells[c.Key] = c
	return true
}

// verify recomputes every key's body directly and returns the number
// of responses that carried a key whose body differs, plus each key's
// direct service time in milliseconds. workers bounds the concurrent
// recomputations.
func (l *bodyLedger) verify(workers int) (failed int, serviceMS map[string]float64, err error) {
	keys := sortedKeys(l.First)
	bad := make([]bool, len(keys))
	took := make([]float64, len(keys))
	err = parallel.ForEach(context.Background(), workers, len(keys), func(_ context.Context, i int) error {
		s := time.Now()
		want, err := directResult(l.Cells[keys[i]])
		took[i] = ms(time.Since(s))
		if err != nil {
			return fmt.Errorf("recomputing %s: %w", keys[i], err)
		}
		bad[i] = !bytes.Equal(want, l.First[keys[i]])
		return nil
	})
	if err != nil {
		return 0, nil, err
	}
	serviceMS = map[string]float64{}
	for i, k := range keys {
		serviceMS[k] = took[i]
		if bad[i] {
			failed += l.Uses[k]
		}
	}
	return failed, serviceMS, nil
}

// post sends one JSON request and returns the response body, failing
// on any status but 200.
func post(c *http.Client, url string, body []byte) ([]byte, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, nil
}

// postSweep sends one /v1/sweep request and returns each cell's body,
// byte for byte as the server wrote it.
func postSweep(c *http.Client, url string, cells []cellReq) ([][]byte, error) {
	req := serve.SweepRequest{Cells: make([]serve.CellSpec, len(cells))}
	for i, cell := range cells {
		req.Cells[i] = cell.Spec
	}
	body, err := post(c, url+"/v1/sweep", mustJSON(req))
	if err != nil {
		return nil, err
	}
	var resp struct {
		Cells []json.RawMessage `json:"cells"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("decoding sweep: %w", err)
	}
	if len(resp.Cells) != len(cells) {
		return nil, fmt.Errorf("sweep answered %d cells for %d", len(resp.Cells), len(cells))
	}
	out := make([][]byte, len(cells))
	for i, raw := range resp.Cells {
		out[i] = raw
	}
	return out, nil
}

// prewarm fills the result cache with one sweep of cells and returns
// their response bodies in order.
func prewarm(b *bench, s *server, c *http.Client, cells []cellReq) ([][]byte, error) {
	start := time.Now()
	bodies, err := postSweep(c, s.url, cells)
	if err != nil {
		return nil, fmt.Errorf("prewarm sweep: %w", err)
	}
	b.tr.record(0, 0, "setup.prewarm_sweep", start, time.Now(), len(cells))
	return bodies, nil
}

// mustJSON marshals values the benchmark itself builds.
func mustJSON(v any) []byte {
	out, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("encoding a request: %v", err))
	}
	return out
}

// hitPath measures the cache-hit path in layers: the handler alone on
// an in-memory recorder, the loopback round trip around it, and the
// LRU probe.
func hitPath(b *bench, s *server, c *http.Client, ledger *bodyLedger) error {
	var cell cellReq
	for _, k := range sortedKeys(ledger.First) {
		if ledger.Cells[k].Spec.Floorplan == "" {
			cell = ledger.Cells[k]
			break
		}
	}
	body := mustJSON(cell.Spec)
	h := s.srv.Handler()
	var herr error
	handler := timePer(layerLoop, 1, func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sim", bytes.NewReader(body)))
		if rec.Code != http.StatusOK && herr == nil {
			herr = fmt.Errorf("handler answered %d", rec.Code)
		}
	})
	if herr != nil {
		return herr
	}
	b.set("serve.handler_hit_us", handler/1e3)

	var rtt []float64
	for k := 0; k < 500; k++ {
		st := time.Now()
		if _, err := post(c, s.url+"/v1/sim", body); err != nil {
			return err
		}
		rtt = append(rtt, float64(time.Since(st).Nanoseconds()))
	}
	b.set("serve.transport_us", (median(rtt)-handler)/1e3)

	lru := memo.NewLRU[[32]byte, []byte](serve.DefaultCacheEntries)
	keys := make([][32]byte, serve.DefaultCacheEntries)
	for i := range keys {
		keys[i] = sha256.Sum256([]byte(strconv.Itoa(i)))
		lru.Put(keys[i], body)
	}
	var i int
	b.set("memo.lru_get_ns", timePer(layerLoop, 1024, func() {
		for k := 0; k < 1024; k++ {
			lru.Get(keys[i%len(keys)])
			i++
		}
	}))
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
