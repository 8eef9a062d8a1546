package serve

import (
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

// cell is a fully resolved, validated simulation cell. Its normalized
// spec is the key its finished result is cached under, and the key is
// exact: two cells with equal specs answer bit-identical bytes. The
// spec names the workload, policy, floorplan and simulated time; the
// rest of what a run depends on, the control period that picks the
// propagator and the trace length, both cell kinds take from
// sim.DefaultConfig() (here and in sim.GridConfig), so within one
// process they are constants, and the cache never outlives the
// process. A cell kind with another period or trace length would have
// to add it to the key. resolveSimTime rejects NaN and maps ±0 to the
// default, so == on SimTimeS is equality of the time's bits.
type cell struct {
	spec   CellSpec // normalized: canonical names, resolved simtime
	cfg    sim.Config
	mix    workload.Mix
	policy core.PolicySpec
	// Grid cells timeshare the tiled benchmark pool instead of running
	// a named mix; label is the generated floorplan's name.
	benchmarks []string
	label      string
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

// minSimTimeS is the MinSimTime of sim.DefaultConfig(), whose control
// period both cell kinds inherit. A shorter simulated time rounds to
// zero control ticks, a run that would fail on the pool rather than at
// decode.
var minSimTimeS = float64(sim.DefaultConfig().MinSimTime())

// resolveSimTime validates the wire simulated time against the server
// limits, resolving the zero "inherit" sentinel.
func (s *Server) resolveSimTime(reqSimTime, defaultSimTime float64) (float64, error) {
	simTime := reqSimTime
	if simTime == 0 {
		simTime = defaultSimTime
	}
	if simTime == 0 {
		simTime = defaultSimTimeS
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
// binds it to the paper's default chip under a named mix or, when the
// spec names a floorplan, to a generated grid through sim.GridConfig,
// the wiring the manycore extension uses: fitted lumped-RC parameters,
// per-class DVFS ceilings, and a 3:2 oversubscribed timeshared run over
// the cyclically tiled benchmark pool. The first fault found is the
// one reported, in this order: the simulated time, the workload or the
// floorplan, the policy, the grid build. ParseGridSpec bounds each
// grid dimension (and the cell product) before anything is allocated,
// so a hostile "99999999x99999999" floorplan dies here with a 400.
func (s *Server) resolveCell(spec CellSpec, defaultSimTime float64) (*cell, error) {
	simTime, err := s.resolveSimTime(spec.SimTimeS, defaultSimTime)
	if err != nil {
		return nil, err
	}
	var c cell
	var gs floorplan.GridSpec
	grid := strings.TrimSpace(spec.Floorplan) != ""
	switch {
	case grid && strings.TrimSpace(spec.Workload) != "":
		return nil, fmt.Errorf("serve: floorplan cells run the tiled benchmark pool; workload must be empty, got %q", spec.Workload)
	case grid:
		gs, err = floorplan.ParseGridSpec(strings.TrimSpace(spec.Floorplan))
	default:
		c.mix, err = workload.MixByName(strings.TrimSpace(spec.Workload))
	}
	if err != nil {
		return nil, err
	}
	if c.policy, err = core.PolicyByName(spec.Policy); err != nil {
		return nil, err
	}
	if grid {
		if c.cfg, c.benchmarks, err = sim.GridConfig(gs); err != nil {
			return nil, err
		}
		c.label = c.cfg.Floorplan.Name
		c.spec.Floorplan = fmt.Sprintf("%dx%d", gs.Rows, gs.Cols)
	} else {
		c.cfg = sim.DefaultConfig()
	}
	c.cfg.SimTime = units.Seconds(simTime)
	c.spec.Workload = c.mix.Name
	c.spec.Policy = c.policy.CLIName()
	c.spec.SimTimeS = simTime
	return &c, nil
}

// CellResult is the wire form of one finished cell. Field order is the
// canonical response order; encoding/json marshals struct fields in
// declaration order with deterministic float formatting, so equal
// metrics always produce equal bytes — the property the determinism
// guarantee and the result cache both rest on.
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
