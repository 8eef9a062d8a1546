package uarch

import "fmt"

// Category labels the SPEC suite a benchmark belongs to (paper §3.4:
// integer benchmarks stress the integer register file, floating point
// benchmarks the FP register file).
type Category int

const (
	SPECint Category = iota
	SPECfp
)

func (c Category) String() string {
	if c == SPECfp {
		return "SPECfp"
	}
	return "SPECint"
}

// Profile characterizes one benchmark's steady behaviour: its
// instruction mix, achievable instruction-level parallelism, memory
// behaviour, and phase structure. Profiles are the distilled equivalent
// of the paper's SimPoint-selected 500M-instruction traces.
type Profile struct {
	Name     string
	Category Category

	// Instruction mix fractions; IntOps+FPOps+Loads+Stores+Branches
	// should sum to ~1.
	IntOps   float64
	FPOps    float64
	Loads    float64
	Stores   float64
	Branches float64

	// ILP is the dependence-limited parallelism the program exposes
	// (instructions per cycle achievable with infinite resources).
	ILP float64

	// Memory behaviour, expressed per memory access.
	L1MissRate float64 // fraction of loads/stores missing L1D
	L2MissRate float64 // fraction of L1 misses also missing L2
	MLP        float64 // memory-level parallelism: overlapping misses

	// Branch behaviour.
	Mispredict float64 // mispredictions per branch

	// PowerFactor scales the utilization-derived switching activity of
	// the program's instructions (data switching factors, datapath width
	// usage). It decorrelates power from IPC: real benchmark suites
	// contain hot-but-slow programs (twolf) and fast-but-cool ones
	// (sixtrack's tight FP loops). Zero means 1.0.
	PowerFactor float64

	// Phase structure: activity is modulated sinusoidally by
	// ±PhaseAmplitude with the given period in seconds. Benchmarks the
	// paper lists as lacking a steady temperature (Table 1b) have large
	// amplitudes; stable ones have small or zero amplitude.
	PhaseAmplitude float64
	PhasePeriod    float64 // seconds
	PhasePhase     float64 // initial phase offset, radians

	// NoiseAmplitude adds deterministic pseudo-random per-interval
	// jitter (fraction of activity).
	NoiseAmplitude float64

	// Seed decorrelates the jitter streams of different benchmarks.
	Seed uint64
}

// Validate checks profile plausibility.
func (p Profile) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("uarch: profile with empty name")
	}
	mix := p.IntOps + p.FPOps + p.Loads + p.Stores + p.Branches
	if mix < 0.95 || mix > 1.05 {
		return fmt.Errorf("uarch: profile %s instruction mix sums to %g, want ≈1", p.Name, mix)
	}
	for name, v := range map[string]float64{
		"IntOps": p.IntOps, "FPOps": p.FPOps, "Loads": p.Loads,
		"Stores": p.Stores, "Branches": p.Branches,
		"L1MissRate": p.L1MissRate, "L2MissRate": p.L2MissRate,
		"Mispredict": p.Mispredict, "PhaseAmplitude": p.PhaseAmplitude,
		"NoiseAmplitude": p.NoiseAmplitude,
	} {
		if v < 0 || v > 1 {
			return fmt.Errorf("uarch: profile %s: %s = %g outside [0,1]", p.Name, name, v)
		}
	}
	if p.ILP <= 0 {
		return fmt.Errorf("uarch: profile %s: ILP must be positive", p.Name)
	}
	if p.MLP < 1 {
		return fmt.Errorf("uarch: profile %s: MLP must be ≥ 1", p.Name)
	}
	if p.PhaseAmplitude > 0 && p.PhasePeriod <= 0 {
		return fmt.Errorf("uarch: profile %s: phase amplitude without period", p.Name)
	}
	if p.PowerFactor < 0 || p.PowerFactor > 3 {
		return fmt.Errorf("uarch: profile %s: PowerFactor %g outside [0,3]", p.Name, p.PowerFactor)
	}
	return nil
}

// powerFactor returns the effective switching factor (zero value → 1).
func (p Profile) powerFactor() float64 {
	if p.PowerFactor == 0 {
		return 1
	}
	return p.PowerFactor
}

// AnalyticIPC computes the sustained instructions-per-cycle for the
// profile on the configured core: the bottleneck-limited ideal IPC
// degraded by memory-stall and branch-misprediction CPI components.
func AnalyticIPC(cfg Config, p Profile) float64 {
	ideal := p.ILP
	if w := float64(cfg.DecodeWidth); w < ideal {
		ideal = w
	}
	// Structural per-unit limits: a unit class used by fraction f of
	// instructions with n copies caps IPC at n/f.
	limit := func(n int, frac float64) float64 {
		if frac <= 0 {
			return 1e9
		}
		return float64(n) / frac
	}
	for _, l := range []float64{
		limit(cfg.NumFXU, p.IntOps),
		limit(cfg.NumFPU, p.FPOps),
		limit(cfg.NumLSU, p.Loads+p.Stores),
		limit(cfg.NumBXU, p.Branches),
	} {
		if l < ideal {
			ideal = l
		}
	}
	baseCPI := 1 / ideal

	memAccess := p.Loads + p.Stores
	l2CPI := memAccess * p.L1MissRate * float64(cfg.L2Latency) * 0.5 // L1 misses partly hidden
	memCPI := memAccess * p.L1MissRate * p.L2MissRate * float64(cfg.MemLatency) / p.MLP
	brCPI := p.Branches * p.Mispredict * float64(cfg.PipelineDepth)

	return 1 / (baseCPI + l2CPI + memCPI + brCPI)
}
