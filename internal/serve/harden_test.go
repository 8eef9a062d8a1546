package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"strings"
	"testing"
)

// hostileCase is one request body hostile on exactly one axis, and the
// endpoint it is posted to.
type hostileCase struct {
	name, path, body string
}

// hostileCases are the bodies TestHostileWireRejected posts and
// FuzzWireSpec starts from.
func hostileCases() []hostileCase {
	var bigSweep strings.Builder
	bigSweep.WriteString(`{"simtime_s":0.001,"cells":[`)
	for i := 0; i <= MaxSweepCells; i++ {
		if i > 0 {
			bigSweep.WriteByte(',')
		}
		bigSweep.WriteString(`{"workload":"workload1","policy":"dist-dvfs"}`)
	}
	bigSweep.WriteString(`]}`)

	// Legal bodies but for their size: a run of whitespace between two
	// fields carries each past maxRequestBytes.
	pad := strings.Repeat(" ", maxRequestBytes)

	return []hostileCase{
		{"sweep over cell cap", "/v1/sweep", bigSweep.String()},
		{"oversized sim body", "/v1/sim", `{"workload":"workload1",` + pad + `"policy":"dist-dvfs","simtime_s":0.001}`},
		{"oversized sweep body", "/v1/sweep", `{"simtime_s":0.001,` + pad + `"cells":[{"workload":"workload1","policy":"dist-dvfs"}]}`},
		{"oversized trace body", "/v1/sim/trace", `{"workload":"workload1",` + pad + `"policy":"dist-dvfs","simtime_s":0.001}`},
		{"overflow floorplan", "/v1/sim", `{"floorplan":"99999999x99999999","policy":"dist-dvfs","simtime_s":0.001}`},
		{"negative floorplan dim", "/v1/sim", `{"floorplan":"4x-4","policy":"dist-dvfs","simtime_s":0.001}`},
		{"zero floorplan dim", "/v1/sim", `{"floorplan":"0x4","policy":"dist-dvfs","simtime_s":0.001}`},
		{"garbage floorplan", "/v1/sim", `{"floorplan":"axb","policy":"dist-dvfs","simtime_s":0.001}`},
		{"trailing garbage floorplan", "/v1/sim", `{"floorplan":"4x4x4","policy":"dist-dvfs","simtime_s":0.001}`},
		{"floorplan with workload", "/v1/sim", `{"floorplan":"4x4","workload":"workload1","policy":"dist-dvfs","simtime_s":0.001}`},
		{"grid simtime too large", "/v1/sim", `{"floorplan":"4x4","policy":"dist-dvfs","simtime_s":1e9}`},
		{"grid simtime negative", "/v1/sim", `{"floorplan":"4x4","policy":"dist-dvfs","simtime_s":-1}`},
		{"negative trace stride", "/v1/sim/trace", `{"workload":"workload1","policy":"dist-dvfs","every":-1}`},
		{"huge trace stride", "/v1/sim/trace", fmt.Sprintf(`{"workload":"workload1","policy":"dist-dvfs","every":%d}`, MaxTraceEvery+1)},
		{"overflow floorplan in sweep", "/v1/sweep", `{"simtime_s":0.001,"cells":[{"floorplan":"99999999x99999999","policy":"dist-dvfs"}]}`},
	}
}

// TestHostileWireRejected drives the decode-time caps: every body is
// hostile on exactly one axis and must die with a 400 before the
// server sizes any allocation or loop from it, and the server must
// keep serving afterwards.
func TestHostileWireRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, tc := range hostileCases() {
		code, _, body := post(t, ts.URL+tc.path, tc.body)
		if code != http.StatusBadRequest {
			t.Errorf("%s: got status %d (body %.120s), want 400", tc.name, code, body)
		}
	}
	// Each failure was the request's, not the process's.
	mustPost(t, ts.URL+"/v1/sim", `{"workload":"workload1","policy":"dist-dvfs","simtime_s":0.001}`)
}

// TestGridCellDeterministicAcrossCacheFlush proves a generated-grid
// cell behaves like a named-floorplan cell: the warm response replays
// the cold bytes verbatim, and a full recompute after an admin flush
// reproduces them bit-identically.
func TestGridCellDeterministicAcrossCacheFlush(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheEntries: 16})
	const body = `{"floorplan":"2x2","policy":"dist-dvfs","simtime_s":0.004}`
	cold := mustPost(t, ts.URL+"/v1/sim", body)
	if !bytes.Contains(cold, []byte(`"floorplan":"2x2"`)) {
		t.Errorf("response does not echo the canonical grid spec: %s", cold)
	}
	warm := mustPost(t, ts.URL+"/v1/sim", body)
	if !bytes.Equal(cold, warm) {
		t.Fatalf("warm grid response diverged from cold:\ncold: %s\nwarm: %s", cold, warm)
	}
	mustPost(t, ts.URL+"/v1/admin/flush", "")
	recomputed := mustPost(t, ts.URL+"/v1/sim", body)
	if !bytes.Equal(cold, recomputed) {
		t.Fatalf("grid recompute after flush diverged:\ncold: %s\nnew:  %s", cold, recomputed)
	}
}
