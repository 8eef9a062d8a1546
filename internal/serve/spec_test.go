package serve

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"multitherm/internal/core"
	"multitherm/internal/floorplan"
	"multitherm/internal/workload"
)

// TestCellKeyPinned pins the content address of one paper cell and one
// grid cell, as resolveCell computes it, so a change to the preimage's
// encoding cannot move a cached key unnoticed, and checks that cellKey
// allocates nothing.
func TestCellKeyPinned(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	for _, tc := range []struct {
		spec CellSpec
		want string
	}{
		{CellSpec{Workload: "workload1", Policy: "dist-dvfs", SimTimeS: 0.01}, "54e4c33519ee42349d4a57c7792d114dc22d84e9d4de9cdd5c8c30c360e56c5d"},
		{CellSpec{Floorplan: "16x16", Policy: "dist-stopgo", SimTimeS: 0.025}, "3d9b163ca62d8dfce1675b10c4f40983a21a4769cdecca2a717bb43f4a75f78b"},
	} {
		c, err := s.resolveCell(tc.spec, 0)
		if err != nil {
			t.Fatalf("%+v: %v", tc.spec, err)
		}
		if got := hex.EncodeToString(c.key[:]); got != tc.want {
			t.Errorf("%+v: key %s, want %s", tc.spec, got, tc.want)
		}
		dt := float64(c.cfg.Policy.SamplePeriod)
		if n := testing.AllocsPerRun(50, func() { c.key = cellKey(c.spec, dt, c.cfg.TraceIntervals) }); n != 0 {
			t.Errorf("%+v: cellKey allocates %v per run", tc.spec, n)
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
	// Seventeen digits and a three-digit exponent: the longest JSON
	// spelling of a positive float64.
	simTime := 1.2345678901234567e-300
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
// must resolve to the same key again and from its normalized spec, the
// content address its cached result is stored under. The seeds are two
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
// same key all three times.
func checkResolvedKey(t *testing.T, s *Server, spec CellSpec, defaultSimTime float64) {
	t.Helper()
	c, err := s.resolveCell(spec, defaultSimTime)
	if err != nil {
		return
	}
	again, err := s.resolveCell(spec, defaultSimTime)
	if err != nil || again.key != c.key {
		t.Fatalf("%+v: resolved twice, key %x then %x (err %v)", spec, c.key, again.key, err)
	}
	norm, err := s.resolveCell(c.spec, 0)
	if err != nil || norm.key != c.key {
		t.Fatalf("%+v: normalized to %+v, key %x then %x (err %v)", spec, c.spec, c.key, norm.key, err)
	}
}
