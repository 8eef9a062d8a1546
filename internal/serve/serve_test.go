package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// newTestServer builds a server plus its httptest listener; the
// cleanup drains in listener-then-server order, mirroring production.
//
// The MTSERVE_FORCE_WINDOW environment variable overrides the batch
// window for every server built through this helper: the CI race
// shard sets it to 0 so each join dispatches immediately, turning a
// full test run into maximum flush contention on the batcher and
// pool. Tests whose assertions depend on a specific window (batch
// coalescing) construct their server directly and are unaffected.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if v, ok := os.LookupEnv("MTSERVE_FORCE_WINDOW"); ok {
		d, err := time.ParseDuration(v)
		if err != nil {
			t.Fatalf("MTSERVE_FORCE_WINDOW %q: %v", v, err)
		}
		cfg.Window = d
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func post(t *testing.T, url, body string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading body: %v", err)
	}
	return resp.StatusCode, resp.Header, b
}

func mustPost(t *testing.T, url, body string) []byte {
	t.Helper()
	code, _, b := post(t, url, body)
	if code != http.StatusOK {
		t.Fatalf("POST %s: status %d, body %s", url, code, b)
	}
	return b
}

const testSimBody = `{"workload":"workload1","policy":"dist-dvfs","simtime_s":0.01}`

func TestSimEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheEntries: 16})
	body := mustPost(t, ts.URL+"/v1/sim", testSimBody)
	for _, want := range []string{`"workload":"workload1"`, `"policy":"dist-dvfs"`, `"bips":`, `"max_temp_c":`} {
		if !bytes.Contains(body, []byte(want)) {
			t.Errorf("response missing %s: %s", want, body)
		}
	}
}

func TestSimRejectsBadSpecs(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for name, body := range map[string]string{
		"unknown workload": `{"workload":"nope","policy":"dist-dvfs"}`,
		"unknown policy":   `{"workload":"workload1","policy":"nope"}`,
		"negative simtime": `{"workload":"workload1","policy":"dist-dvfs","simtime_s":-1}`,
		"huge simtime":     `{"workload":"workload1","policy":"dist-dvfs","simtime_s":1e9}`,
		"bad json":         `{`,
	} {
		code, _, _ := post(t, ts.URL+"/v1/sim", body)
		if code != http.StatusBadRequest {
			t.Errorf("%s: got status %d, want 400", name, code)
		}
	}
}

// TestCacheHitReplaysExactBytes proves the content-addressed cache
// stores and replays the canonical response verbatim, and that the
// counters see the traffic.
func TestCacheHitReplaysExactBytes(t *testing.T) {
	s, ts := newTestServer(t, Config{CacheEntries: 16})
	cold := mustPost(t, ts.URL+"/v1/sim", testSimBody)
	warm := mustPost(t, ts.URL+"/v1/sim", testSimBody)
	if !bytes.Equal(cold, warm) {
		t.Fatalf("warm response diverged from cold:\ncold: %s\nwarm: %s", cold, warm)
	}
	st := s.cache.Stats()
	if st.Hits < 1 || st.Misses < 1 || st.Entries != 1 {
		t.Fatalf("cache stats %+v: want >=1 hit, >=1 miss, exactly 1 entry", st)
	}
}

// TestDeterministicAcrossOrderingsAndCacheState is the acceptance
// criterion: fire a mixed sim/sweep burst in two different client
// orderings, with batching on and off, cold and warm — every
// configuration must yield bit-identical bytes per request.
func TestDeterministicAcrossOrderingsAndCacheState(t *testing.T) {
	sims := []string{
		`{"workload":"workload1","policy":"dist-dvfs","simtime_s":0.008}`,
		`{"workload":"workload2","policy":"global-stopgo","simtime_s":0.008}`,
		`{"workload":"workload3","policy":"dist-stopgo+counter","simtime_s":0.008}`,
	}
	sweep := `{"simtime_s":0.008,"cells":[` +
		`{"workload":"workload4","policy":"dist-dvfs"},` +
		`{"workload":"workload5","policy":"dist-dvfs+sensor"},` +
		`{"workload":"workload1","policy":"dist-dvfs"}]}`

	type reqKey struct {
		path string
		body string
	}
	burst := func(url string, order []int) map[reqKey][]byte {
		reqs := make([]reqKey, 0, len(sims)+1)
		for _, b := range sims {
			reqs = append(reqs, reqKey{"/v1/sim", b})
		}
		reqs = append(reqs, reqKey{"/v1/sweep", sweep})

		out := make(map[reqKey][]byte, len(reqs))
		var mu sync.Mutex
		var wg sync.WaitGroup
		for _, i := range order {
			r := reqs[i]
			wg.Add(1)
			go func() {
				defer wg.Done()
				body := mustPost(t, url+r.path, r.body)
				mu.Lock()
				out[r] = body
				mu.Unlock()
			}()
		}
		wg.Wait()
		return out
	}

	var reference map[reqKey][]byte
	for _, cfg := range []struct {
		name string
		c    Config
	}{
		{"batching-on", Config{Workers: 2, Window: 2 * time.Millisecond, CacheEntries: 64}},
		{"batching-off", Config{Workers: 2, CacheEntries: 64}},
		{"no-cache", Config{Workers: 2, Window: 2 * time.Millisecond}},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			_, ts := newTestServer(t, cfg.c)
			cold := burst(ts.URL, []int{0, 1, 2, 3})
			warm := burst(ts.URL, []int{3, 2, 1, 0})
			if reference == nil {
				reference = cold
			}
			for k, want := range reference {
				if got, ok := cold[k]; !ok || !bytes.Equal(got, want) {
					t.Errorf("%s cold %s %s: bytes diverged from reference", cfg.name, k.path, k.body)
				}
				if got, ok := warm[k]; !ok || !bytes.Equal(got, want) {
					t.Errorf("%s warm reordered %s %s: bytes diverged from reference", cfg.name, k.path, k.body)
				}
			}
		})
	}
}

// TestBatcherCoalescesSameGroup shows concurrent same-(Template,dt)
// requests actually share panels: with a generous window, a burst of
// distinct cells must form at least one multi-lane batch.
func TestBatcherCoalescesSameGroup(t *testing.T) {
	// Built directly, not via newTestServer: the assertion needs this
	// exact window even when MTSERVE_FORCE_WINDOW=0 disables
	// coalescing everywhere else.
	s := New(Config{
		Workers: 1,
		Window:  50 * time.Millisecond,
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	var wg sync.WaitGroup
	for _, body := range []string{
		`{"workload":"workload1","policy":"dist-dvfs","simtime_s":0.005}`,
		`{"workload":"workload2","policy":"dist-dvfs","simtime_s":0.005}`,
		`{"workload":"workload3","policy":"dist-dvfs","simtime_s":0.005}`,
		`{"workload":"workload4","policy":"dist-dvfs","simtime_s":0.005}`,
	} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mustPost(t, ts.URL+"/v1/sim", body)
		}()
	}
	wg.Wait()
	st := s.batcher.stats()
	if st.WidestBatch < 2 {
		t.Fatalf("batcher stats %+v: want at least one multi-lane batch", st)
	}
	if st.Lanes != 4 {
		t.Fatalf("batcher stats %+v: want 4 lanes total", st)
	}
}

// TestSheddingPastWatermark wedges the single worker and checks that
// requests beyond the watermark get 429 + Retry-After while the wedged
// request still completes.
func TestSheddingPastWatermark(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, MaxInflightCells: 1})
	gate := make(chan struct{})
	started := make(chan struct{})
	if err := s.pool.Submit(func() { close(started); <-gate }); err != nil {
		t.Fatalf("wedging worker: %v", err)
	}
	<-started

	// First cell occupies the watermark slot (queued behind the wedge).
	firstDone := make(chan []byte, 1)
	go func() {
		firstDone <- mustPost(t, ts.URL+"/v1/sim", testSimBody)
	}()
	// Wait until the first request has admitted its cell.
	for i := 0; s.inflight.Load() == 0; i++ {
		if i > 1000 {
			t.Fatal("first request never admitted")
		}
		time.Sleep(time.Millisecond)
	}

	code, hdr, _ := post(t, ts.URL+"/v1/sim",
		`{"workload":"workload2","policy":"dist-dvfs","simtime_s":0.01}`)
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-watermark request: got status %d, want 429", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("429 response missing Retry-After")
	}
	if s.shed.Load() == 0 {
		t.Fatal("shed counter did not move")
	}

	close(gate)
	select {
	case body := <-firstDone:
		if len(body) == 0 {
			t.Fatal("admitted request returned empty body")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("admitted request never completed after unwedging")
	}
}

// pendingJoins counts the joins waiting in b's groups for a flush.
func pendingJoins(b *batcher) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := 0
	for _, g := range b.groups {
		g.mu.Lock()
		n += len(g.pending)
		g.mu.Unlock()
	}
	return n
}

// TestGracefulDrain proves Close waits for accepted work: a request
// in flight when the drain starts still answers with full bytes.
func TestGracefulDrain(t *testing.T) {
	s := New(Config{Workers: 1, Window: time.Hour})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// With an hour-long window the cell sits pending until flushAll.
	done := make(chan []byte, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/sim", "application/json", strings.NewReader(testSimBody))
		if err != nil {
			done <- nil
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		done <- b
	}()
	// Wait for the join itself, not just admission: the handler admits
	// before it joins, and a Close in between would leave the join
	// behind the hour-long timer.
	for i := 0; pendingJoins(s.batcher) == 0; i++ {
		if i > 1000 {
			t.Fatal("request never joined a batch")
		}
		time.Sleep(time.Millisecond)
	}
	s.Close() // flushAll releases the pending join, pool drains it
	select {
	case b := <-done:
		if !bytes.Contains(b, []byte(`"bips":`)) {
			t.Fatalf("drained request answered %q, want a full result", b)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("request stuck across drain")
	}
}

// TestTraceStreamDeterministic runs the same trace twice and requires
// identical NDJSON bytes, with every line valid JSON and the last line
// carrying the canonical result.
func TestTraceStreamDeterministic(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"workload":"workload1","policy":"dist-stopgo","simtime_s":0.005,"every":8}`
	first := mustPost(t, ts.URL+"/v1/sim/trace", body)
	second := mustPost(t, ts.URL+"/v1/sim/trace", body)
	if !bytes.Equal(first, second) {
		t.Fatal("trace stream bytes differ between identical requests")
	}
	sc := bufio.NewScanner(bytes.NewReader(first))
	var lines []string
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if len(lines) < 2 {
		t.Fatalf("trace stream has %d lines, want trace lines plus a result", len(lines))
	}
	for i, line := range lines[:len(lines)-1] {
		if !strings.HasPrefix(line, `{"tick":`) {
			t.Fatalf("trace line %d = %q, want a tick record", i, line)
		}
	}
	last := lines[len(lines)-1]
	if !strings.HasPrefix(last, `{"result":`) || !strings.Contains(last, `"bips":`) {
		t.Fatalf("final trace line = %q, want the canonical result", last)
	}
}

// TestDefaultWorkersIsGOMAXPROCS pins Config.Workers' documented
// default end to end: a zero-value config serves with one pool worker
// per GOMAXPROCS, as /v1/stats reports.
func TestDefaultWorkersIsGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatalf("GET stats: %v", err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding stats: %v", err)
	}
	if st.Workers != 4 {
		t.Fatalf("stats report %d workers at GOMAXPROCS=4, want 4", st.Workers)
	}
}

func TestStatsAndFlush(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheEntries: 16})
	mustPost(t, ts.URL+"/v1/sim", testSimBody)

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatalf("GET stats: %v", err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{`"inflight_cells"`, `"cache"`, `"batching"`, `"completed_cells":1`} {
		if !bytes.Contains(b, []byte(want)) {
			t.Errorf("stats missing %s: %s", want, b)
		}
	}

	flushed := mustPost(t, ts.URL+"/v1/admin/flush", "")
	if !bytes.Contains(flushed, []byte(`"flushed":1`)) {
		t.Fatalf("flush response %s, want flushed:1", flushed)
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
}

// TestSweepOrderingStable checks sweep responses assemble in request
// order even when cells complete out of order across cache hits and
// misses.
func TestSweepOrderingStable(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheEntries: 64})
	// Warm one middle cell so the second sweep mixes hits and misses.
	mustPost(t, ts.URL+"/v1/sim", `{"workload":"workload2","policy":"dist-dvfs","simtime_s":0.006}`)
	sweep := `{"simtime_s":0.006,"cells":[` +
		`{"workload":"workload1","policy":"dist-dvfs"},` +
		`{"workload":"workload2","policy":"dist-dvfs"},` +
		`{"workload":"workload3","policy":"dist-dvfs"}]}`
	body := mustPost(t, ts.URL+"/v1/sweep", sweep)
	i1 := bytes.Index(body, []byte(`"workload":"workload1"`))
	i2 := bytes.Index(body, []byte(`"workload":"workload2"`))
	i3 := bytes.Index(body, []byte(`"workload":"workload3"`))
	if i1 < 0 || i2 < 0 || i3 < 0 || !(i1 < i2 && i2 < i3) {
		t.Fatalf("sweep cells out of request order (offsets %d %d %d): %s", i1, i2, i3, body)
	}
}
