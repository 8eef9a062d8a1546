package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"testing"

	"multitherm/internal/core"
	"multitherm/internal/floorplan"
	"multitherm/internal/workload"
)

// TestCacheProbeAllocatesNothing checks that probing the result cache
// with a resolved cell's spec, one hit and one miss, allocates
// nothing: a lookup keyed by the spec costs no more than the lookup
// itself.
func TestCacheProbeAllocatesNothing(t *testing.T) {
	s := New(Config{Workers: 1, CacheEntries: 4})
	defer s.Close()
	var cells [2]*cell
	for i, spec := range []CellSpec{
		{Workload: "workload1", Policy: "dist-dvfs", SimTimeS: 0.01},
		{Floorplan: "16x16", Policy: "dist-stopgo", SimTimeS: 0.025},
	} {
		c, err := s.resolveCell(spec, 0)
		if err != nil {
			t.Fatalf("%+v: %v", spec, err)
		}
		cells[i] = c
	}
	s.cache.Put(cells[0].spec, []byte(`{}`))
	if n := testing.AllocsPerRun(100, func() {
		s.cache.Get(cells[0].spec)
		s.cache.Get(cells[1].spec)
	}); n != 0 {
		t.Errorf("a cache hit and a miss allocate %v objects, want 0", n)
	}
	// AllocsPerRun makes one warm-up call before its 100 runs.
	if st := s.cache.Stats(); st.Hits != 101 || st.Misses != 101 {
		t.Fatalf("cache stats %+v: want 101 hits and 101 misses", st)
	}
}

// TestRejectionTextsKeepPrecedence pins the 400 body of specs that are
// bad on two axes, so the error a client sees does not depend on how
// resolution is ordered inside: the simulated time is checked first,
// then the workload or the floorplan, then the policy.
func TestRejectionTextsKeepPrecedence(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, tc := range []struct{ path, body, want string }{
		{"/v1/sim", `{"workload":"nope","policy":"nope"}`,
			`{"error":"workload: unknown mix \"nope\""}`},
		{"/v1/sim", `{"floorplan":"axb","policy":"nope"}`,
			`{"error":"floorplan: cannot parse grid \"axb\" (want RxC, e.g. 16x16): strconv.Atoi: parsing \"a\": invalid syntax"}`},
		{"/v1/sim", `{"floorplan":"4x4","workload":"workload1","policy":"nope"}`,
			`{"error":"serve: floorplan cells run the tiled benchmark pool; workload must be empty, got \"workload1\""}`},
		{"/v1/sim", `{"workload":"nope","policy":"dist-dvfs","simtime_s":-1}`,
			`{"error":"serve: simtime_s -1 is not a positive duration"}`},
		{"/v1/sim", `{"floorplan":"axb","policy":"nope","simtime_s":1e-6}`,
			`{"error":"serve: simtime_s 1e-06 is under half a control period (1.388888888888889e-05 s), which runs no control tick"}`},
		{"/v1/sweep", `{"cells":[{"workload":"workload1","policy":"dist-dvfs","simtime_s":0.001},{"floorplan":"4x4","workload":"workload1","policy":"nope"}]}`,
			`{"error":"cell 1: serve: floorplan cells run the tiled benchmark pool; workload must be empty, got \"workload1\""}`},
		{"/v1/sim/trace", `{"workload":"nope","policy":"nope"}`,
			`{"error":"workload: unknown mix \"nope\""}`},
	} {
		if code, _, body := post(t, ts.URL+tc.path, tc.body); code != http.StatusBadRequest || string(body) != tc.want {
			t.Errorf("%s %s: status %d, body %s; want 400 %s", tc.path, tc.body, code, body, tc.want)
		}
	}
}

// TestLargestSweepBodyFitsCap checks that maxRequestBytes turns away no
// legal sweep: MaxSweepCells copies of the longest cell, a named mix or
// a grid under the longest policy name with a simulated time of the
// longest JSON spelling, fit under it, compactly encoded.
func TestLargestSweepBodyFitsCap(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	// The longest JSON spelling of a legal simulated time, 23 bytes:
	// encoding/json writes floats of 1e-6 and up without an exponent,
	// so a time just over the 13.9 µs floor takes four leading zeros
	// and seventeen significant digits ("0.000020000000000000005").
	simTime := math.Nextafter(2e-5, 1)
	var longestMix, longestPolicy string
	for _, m := range workload.Mixes {
		if len(m.Name) > len(longestMix) {
			longestMix = m.Name
		}
	}
	for _, p := range core.Taxonomy() {
		if len(p.CLIName()) > len(longestPolicy) {
			longestPolicy = p.CLIName()
		}
	}
	longestGrid := fmt.Sprintf("1x%d", floorplan.MaxGridCores)
	var longest []byte
	for _, cell := range []CellSpec{
		{Workload: longestMix, Policy: longestPolicy, SimTimeS: simTime},
		{Floorplan: longestGrid, Policy: longestPolicy, SimTimeS: simTime},
	} {
		if _, err := s.resolveCell(cell, 0); err != nil {
			t.Fatalf("%+v is not a legal cell: %v", cell, err)
		}
		if b, err := json.Marshal(cell); err != nil {
			t.Fatal(err)
		} else if len(b) > len(longest) {
			longest = b
		}
	}
	req := SweepRequest{SimTimeS: simTime, Cells: make([]CellSpec, MaxSweepCells)}
	if err := json.Unmarshal(longest, &req.Cells[0]); err != nil {
		t.Fatal(err)
	}
	for i := range req.Cells {
		req.Cells[i] = req.Cells[0]
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(body) > maxRequestBytes {
		t.Fatalf("largest legal sweep body is %d bytes, over the %d-byte cap", len(body), maxRequestBytes)
	}
	t.Logf("largest legal sweep body: %d bytes, %.1f%% of the cap", len(body), 100*float64(len(body))/maxRequestBytes)
}

// FuzzWireSpec decodes arbitrary bytes as each wire type and resolves
// every cell that decodes. Nothing may panic, and a cell that resolves
// must resolve to the same normalized spec again and from that spec,
// the key its cached result is stored under. The seeds are two
// legal cells and the TestHostileWireRejected bodies, less the three
// whose only fault is their size: that cap sits in the handlers, not
// in the decoders, and megabyte inputs stall the fuzzing engine.
func FuzzWireSpec(f *testing.F) {
	for _, tc := range hostileCases() {
		if len(tc.body) <= maxRequestBytes {
			f.Add([]byte(tc.body))
		}
	}
	f.Add([]byte(`{"workload":"workload1","policy":"dist-dvfs","simtime_s":0.01}`))
	f.Add([]byte(`{"floorplan":"4x4","policy":"dist-stopgo","simtime_s":0.002}`))
	s := New(Config{Workers: 1})
	f.Cleanup(s.Close)
	f.Fuzz(func(t *testing.T, body []byte) {
		var spec CellSpec
		if json.Unmarshal(body, &spec) == nil {
			checkResolvedKey(t, s, spec, 0)
		}
		var sweep SweepRequest
		if json.Unmarshal(body, &sweep) == nil && len(sweep.Cells) <= MaxSweepCells {
			for _, c := range sweep.Cells {
				checkResolvedKey(t, s, c, sweep.SimTimeS)
			}
		}
		var trace TraceRequest
		if json.Unmarshal(body, &trace) == nil {
			checkResolvedKey(t, s, trace.CellSpec, 0)
		}
	})
}

// checkResolvedKey resolves spec and, if the server accepts it,
// resolves it again and resolves its normalized spec, requiring the
// same normalized spec all three times.
func checkResolvedKey(t *testing.T, s *Server, spec CellSpec, defaultSimTime float64) {
	t.Helper()
	c, err := s.resolveCell(spec, defaultSimTime)
	if err != nil {
		return
	}
	again, err := s.resolveCell(spec, defaultSimTime)
	if err != nil {
		t.Fatalf("%+v: resolved once, then failed: %v", spec, err)
	}
	if again.spec != c.spec {
		t.Fatalf("%+v: resolved twice, to %+v then %+v", spec, c.spec, again.spec)
	}
	norm, err := s.resolveCell(c.spec, 0)
	if err != nil {
		t.Fatalf("%+v: normalized to %+v, which fails to resolve: %v", spec, c.spec, err)
	}
	if norm.spec != c.spec {
		t.Fatalf("%+v: normalized to %+v, which resolves to %+v", spec, c.spec, norm.spec)
	}
}
