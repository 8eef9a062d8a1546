package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"multitherm/internal/core"
	"multitherm/internal/floorplan"
	"multitherm/internal/metrics"
	"multitherm/internal/sim"
	"multitherm/internal/units"
	"multitherm/internal/workload"
)

// Request caps: explicit maxima enforced at decode time, before any
// allocation or loop is sized by wire input. Violations answer 400.
// Floorplan dimensions are bounded separately by the floorplan package
// itself (each grid dimension and the cell product are validated before
// any allocation).
const (
	// MaxSweepCells bounds the cells array of one sweep request.
	MaxSweepCells = 1024
	// MaxTraceEvery bounds a trace request's tick stride. The trace
	// line count is bounded transitively: simulated time is capped by
	// Config.MaxSimTimeS and the control period is fixed server-side.
	MaxTraceEvery = 1 << 20
)

// CellSpec is the wire form of one simulation cell: a workload mix, a
// DTM policy from the taxonomy, and the simulated silicon time. It is
// the body of POST /v1/sim and the element type of a sweep request's
// cells array. SimTimeS of zero inherits the request (for sweep cells)
// or server default.
type CellSpec struct {
	Workload string  `json:"workload"`
	Policy   string  `json:"policy"`
	SimTimeS float64 `json:"simtime_s,omitempty"`
	// Floorplan selects a generated grid chip ("RxC", e.g. "8x8")
	// instead of the paper's default chip. Grid cells timeshare the
	// tiled benchmark pool, so Workload must be empty.
	Floorplan string `json:"floorplan,omitempty"`
}

// SweepRequest is the body of POST /v1/sweep: many cells answered in
// one response, sharded across the worker pool and coalesced into
// lockstep panels with every other in-flight request.
type SweepRequest struct {
	SimTimeS float64    `json:"simtime_s,omitempty"` // default for cells that leave theirs zero
	Cells    []CellSpec `json:"cells"`
}

// TraceRequest is the body of POST /v1/sim/trace: one cell streamed as
// NDJSON, one line per Every control ticks (default 16).
type TraceRequest struct {
	CellSpec
	Every int `json:"every,omitempty"`
}

// cell is a fully resolved, validated simulation cell. Its canonical
// hash is the content address under which the finished result is
// cached; everything the simulation depends on — workload, policy,
// simulated time, the control period that picks the propagator, and
// the trace length — is folded into the key, so two requests collide
// exactly when their responses must be bit-identical.
type cell struct {
	spec   CellSpec // normalized: canonical policy name, resolved simtime
	cfg    sim.Config
	mix    workload.Mix
	policy core.PolicySpec
	// Grid cells timeshare the tiled benchmark pool instead of running
	// a named mix; label is the generated floorplan's name.
	benchmarks []string
	label      string
	key        [32]byte
}

// newRunner constructs the simulation for one resolved cell: the
// paper-default chip under a named mix, or a generated grid
// timesharing the tiled benchmark pool.
func (c *cell) newRunner() (*sim.Runner, error) {
	if len(c.benchmarks) > 0 {
		return sim.NewTimeshared(c.cfg, c.label, c.benchmarks, c.policy, 0)
	}
	return sim.New(c.cfg, c.mix, c.policy)
}

// minSimTimeS is half the control period both cell kinds inherit from
// sim.DefaultConfig(). A shorter simulated time rounds to zero control
// ticks, a run that would fail on the pool rather than at decode.
var minSimTimeS = float64(sim.DefaultConfig().Policy.SamplePeriod) / 2

// resolveSimTime validates the wire simulated time against the server
// limits, resolving the zero "inherit" sentinel.
func (s *Server) resolveSimTime(reqSimTime, defaultSimTime float64) (float64, error) {
	simTime := reqSimTime
	if simTime == 0 {
		simTime = defaultSimTime
	}
	if simTime == 0 {
		simTime = s.cfg.defaultSimTime()
	}
	if simTime < 0 || math.IsNaN(simTime) || math.IsInf(simTime, 0) {
		return 0, fmt.Errorf("serve: simtime_s %v is not a positive duration", reqSimTime)
	}
	if simTime < minSimTimeS {
		return 0, fmt.Errorf("serve: simtime_s %g is under half a control period (%g s), which runs no control tick", simTime, minSimTimeS)
	}
	if simTime > s.cfg.maxSimTime() {
		return 0, fmt.Errorf("serve: simtime_s %g exceeds the server limit of %g s", simTime, s.cfg.maxSimTime())
	}
	return simTime, nil
}

// resolveCell validates a wire spec against the server limits and
// binds it to the paper's default chip configuration, or to a
// generated grid when the spec names one.
func (s *Server) resolveCell(spec CellSpec, defaultSimTime float64) (*cell, error) {
	simTime, err := s.resolveSimTime(spec.SimTimeS, defaultSimTime)
	if err != nil {
		return nil, err
	}
	if strings.TrimSpace(spec.Floorplan) != "" {
		return s.resolveGridCell(spec, simTime)
	}
	mix, err := workload.MixByName(strings.TrimSpace(spec.Workload))
	if err != nil {
		return nil, err
	}
	policy, err := core.PolicyByName(spec.Policy)
	if err != nil {
		return nil, err
	}
	cfg := sim.DefaultConfig()
	cfg.SimTime = units.Seconds(simTime)
	c := &cell{
		spec: CellSpec{
			Workload: mix.Name,
			Policy:   policy.CLIName(),
			SimTimeS: simTime,
		},
		cfg:    cfg,
		mix:    mix,
		policy: policy,
	}
	c.key = cellKey(c.spec, float64(cfg.Policy.SamplePeriod), cfg.TraceIntervals)
	return c, nil
}

// resolveGridCell binds a spec to a generated grid floorplan through
// sim.GridConfig, the wiring the manycore extension uses: fitted
// lumped-RC parameters, per-class DVFS ceilings, and a 3:2
// oversubscribed timeshared run over the cyclically tiled benchmark
// pool. ParseGridSpec bounds each grid dimension (and the cell product)
// before anything is allocated, so a hostile "99999999x99999999"
// floorplan dies here with a 400.
func (s *Server) resolveGridCell(spec CellSpec, simTime float64) (*cell, error) {
	if strings.TrimSpace(spec.Workload) != "" {
		return nil, fmt.Errorf("serve: floorplan cells run the tiled benchmark pool; workload must be empty, got %q", spec.Workload)
	}
	gs, err := floorplan.ParseGridSpec(strings.TrimSpace(spec.Floorplan))
	if err != nil {
		return nil, err
	}
	policy, err := core.PolicyByName(spec.Policy)
	if err != nil {
		return nil, err
	}
	cfg, benchmarks, err := sim.GridConfig(gs)
	if err != nil {
		return nil, err
	}
	cfg.SimTime = units.Seconds(simTime)
	c := &cell{
		spec: CellSpec{
			Policy:    policy.CLIName(),
			SimTimeS:  simTime,
			Floorplan: fmt.Sprintf("%dx%d", gs.Rows, gs.Cols),
		},
		cfg:        cfg,
		policy:     policy,
		benchmarks: benchmarks,
		label:      cfg.Floorplan.Name,
	}
	c.key = cellKey(c.spec, float64(cfg.Policy.SamplePeriod), cfg.TraceIntervals)
	return c, nil
}

// keyPreimageMax bounds the stack buffer the canonical preimage is
// assembled in: scheme tag, three short names, three 8-byte words, and
// separators all fit with slack (the floorplan string is canonicalized
// "RxC" with both dimensions already validated ≤ 4 digits).
const keyPreimageMax = 192

// cellKey computes the content address of a cell result: a SHA-256
// over a versioned canonical encoding of everything the response bytes
// depend on. Strings are length-delimited (no separator ambiguity) and
// floats are encoded as their IEEE-754 bit patterns, so distinct specs
// cannot collide by formatting and equal specs hash equally on every
// machine. The preimage is written at running offsets into a stack
// array; a name too long for it panics on the slice bound rather than
// being cut short.
//
//mtlint:zeroalloc
func cellKey(spec CellSpec, dt float64, traceIntervals int) [32]byte {
	var b [keyPreimageMax]byte
	off := copy(b[:], "mtserve/2\x00")
	for _, s := range [...]string{spec.Workload, spec.Policy, spec.Floorplan} {
		binary.LittleEndian.PutUint32(b[off:], uint32(len(s)))
		off += 4
		off += copy(b[off:off+len(s)], s)
	}
	for _, w := range [...]uint64{math.Float64bits(spec.SimTimeS), math.Float64bits(dt), uint64(traceIntervals)} {
		binary.LittleEndian.PutUint64(b[off:], w)
		off += 8
	}
	return sha256.Sum256(b[:off])
}

// CellResult is the wire form of one finished cell. Field order is the
// canonical response order; encoding/json marshals struct fields in
// declaration order with deterministic float formatting, so equal
// metrics always produce equal bytes — the property the determinism
// guarantee and the content-addressed cache both rest on.
type CellResult struct {
	Workload     string    `json:"workload"`
	Floorplan    string    `json:"floorplan,omitempty"` // canonical "RxC" for grid cells
	Policy       string    `json:"policy"`
	PolicyLabel  string    `json:"policy_label"`
	SimTimeS     float64   `json:"simtime_s"`
	BIPS         float64   `json:"bips"`
	DutyCycle    float64   `json:"duty_cycle"`
	MaxTempC     float64   `json:"max_temp_c"`
	EmergencyS   float64   `json:"emergency_s"`
	StallS       float64   `json:"stall_s"`
	PenaltyS     float64   `json:"penalty_s"`
	WorkS        float64   `json:"work_s"`
	Instructions float64   `json:"instructions"`
	Migrations   int       `json:"migrations"`
	Preemptions  int       `json:"preemptions"`
	Transitions  int       `json:"transitions"`
	PerCoreInstr []float64 `json:"per_core_instr"`
}

// encodeResult renders the canonical response bytes for one finished
// cell. These exact bytes are what the cache stores and what every
// transport path writes, so hit and miss responses cannot diverge.
func encodeResult(c *cell, m *metrics.Run) ([]byte, error) {
	res := CellResult{
		Workload:     c.spec.Workload,
		Floorplan:    c.spec.Floorplan,
		Policy:       c.spec.Policy,
		PolicyLabel:  c.policy.String(),
		SimTimeS:     c.spec.SimTimeS,
		BIPS:         float64(m.BIPS()),
		DutyCycle:    float64(m.DutyCycle()),
		MaxTempC:     float64(m.MaxTempC),
		EmergencyS:   float64(m.EmergencySeconds),
		StallS:       float64(m.StallSeconds),
		PenaltyS:     float64(m.PenaltySeconds),
		WorkS:        float64(m.WorkSeconds),
		Instructions: m.Instructions,
		Migrations:   m.Migrations,
		Preemptions:  m.Preemptions,
		Transitions:  m.Transitions,
		PerCoreInstr: m.PerCoreInstr,
	}
	return json.Marshal(res)
}
