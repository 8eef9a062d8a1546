package experiments

import (
	"context"
	"fmt"
	"math"

	"multitherm/internal/floorplan"
	"multitherm/internal/parallel"
	"multitherm/internal/power"
	"multitherm/internal/sensor"
	"multitherm/internal/thermal"
	"multitherm/internal/trace"
	"multitherm/internal/uarch"
	"multitherm/internal/units"
	"multitherm/internal/workload"
)

// baniasRig is the single-core notebook system of the paper's
// real-hardware measurements (§2.1): a Pentium M Banias-class die with
// an on-die 1 MB L2, a small notebook cooling solution, and a 1 °C
// quantized ACPI thermal diode at the die edge.
type baniasRig struct {
	fp    *floorplan.Floorplan
	tp    thermal.Params
	pc    power.Config
	uc    uarch.Config
	diode *sensor.Bank
}

func newBaniasRig() (*baniasRig, error) {
	fp := floorplan.Banias()
	tp := thermal.DefaultParams()
	// Notebook package: small spreader/heatpipe sink, weak fan.
	tp.SpreaderSide = 20e-3
	tp.SinkSide = 30e-3
	tp.SinkThickness = 3e-3
	tp.SinkMassFactor = 2
	tp.ConvectionResistance = 1.2
	tp.Ambient = 40 // inside a running notebook chassis

	pc := power.DefaultConfig()
	pc.GlobalDynamicScale = 0.55 // 1.5 GHz low-voltage part

	uc := uarch.DefaultConfig()
	uc.ClockHz = 1.5e9

	diode, err := sensor.ACPIDiode(fp)
	if err != nil {
		return nil, err
	}
	return &baniasRig{fp: fp, tp: tp, pc: pc, uc: uc, diode: diode}, nil
}

// meanActivity returns the benchmark's mean per-block activity vector
// on the Banias floorplan.
func (b *baniasRig) meanActivity(name string) ([]float64, error) {
	prof, err := workload.Profile(name)
	if err != nil {
		return nil, err
	}
	prof.PhaseAmplitude = 0 // means only; phases handled separately
	gen, err := uarch.NewGenerator(b.uc, prof)
	if err != nil {
		return nil, err
	}
	tr, err := trace.Record(gen, 720)
	if err != nil {
		return nil, err
	}
	mean := tr.MeanActivity()
	act := make([]float64, len(b.fp.Blocks))
	for i, blk := range b.fp.Blocks {
		act[i] = mean.ActivityFor(blk.Kind)
	}
	return act, nil
}

// steadyDiode computes the steady-state diode reading for a power
// vector derived from the given activity, iterating the
// temperature-dependent leakage to a fixed point.
func (b *baniasRig) steadyDiode(m *thermal.Model, calc *power.Calculator, act []float64) (float64, units.TempVec, error) {
	temps := make(units.TempVec, len(b.fp.Blocks))
	for i := range temps {
		temps[i] = 60
	}
	cores := []power.CoreState{{Scale: 1}}
	var ss units.TempVec
	for iter := 0; iter < 4; iter++ {
		p := calc.BlockPower(nil, act, cores, temps)
		var err error
		ss, err = m.SteadyState(p)
		if err != nil {
			return 0, nil, err
		}
		copy(temps, ss[:len(temps)])
	}
	return float64(b.diode.Sensors[0].Read(temps, 0)), temps, nil
}

// calibrate tunes the rig's dynamic scale and ambient so that the model
// reproduces the two anchor measurements of paper Table 1a: gzip at
// 70 °C and mcf at 59 °C. Everything else is then prediction.
func (b *baniasRig) calibrate() (*thermal.Model, *power.Calculator, error) {
	actG, err := b.meanActivity("gzip")
	if err != nil {
		return nil, nil, err
	}
	actM, err := b.meanActivity("mcf")
	if err != nil {
		return nil, nil, err
	}
	const wantSpread, wantMcf = 11.0, 59.0
	for iter := 0; iter < 6; iter++ {
		m, err := thermal.New(b.fp, b.tp)
		if err != nil {
			return nil, nil, err
		}
		calc, err := power.NewCalculator(b.fp, b.pc)
		if err != nil {
			return nil, nil, err
		}
		// Use unquantized readings for calibration arithmetic.
		q := b.diode.Sensors[0].Quantization
		b.diode.Sensors[0].Quantization = 0
		tg, _, err := b.steadyDiode(m, calc, actG)
		if err != nil {
			return nil, nil, err
		}
		tm, _, err := b.steadyDiode(m, calc, actM)
		b.diode.Sensors[0].Quantization = q
		if err != nil {
			return nil, nil, err
		}
		spread := tg - tm
		if math.Abs(spread-wantSpread) < 0.05 && math.Abs(tm-wantMcf) < 0.05 {
			return m, calc, nil
		}
		// The diode response is linear in dynamic power, so scale the
		// dynamic knob by the spread ratio and shift ambient to anchor
		// mcf.
		if spread > 0.1 {
			b.pc.GlobalDynamicScale *= wantSpread / spread
		}
		b.tp.Ambient += units.Celsius(wantMcf - tm)
	}
	m, err := thermal.New(b.fp, b.tp)
	if err != nil {
		return nil, nil, err
	}
	calc, err := power.NewCalculator(b.fp, b.pc)
	return m, calc, err
}

// Table1Row is one stable-benchmark measurement.
type Table1Row struct {
	Name      string
	Category  string
	MeasuredC float64
	PaperC    float64
}

// Table1Range is one non-steady-benchmark measurement.
type Table1Range struct {
	Name               string
	Category           string
	MinC, MaxC         float64
	PaperMin, PaperMax float64
}

// Table1Result reproduces paper Table 1.
type Table1Result struct {
	Stable  []Table1Row
	Ranging []Table1Range
}

// RunTable1 measures the Banias model the way the paper measures the
// notebook: launch the benchmark, wait for thermal settling, and poll
// the ACPI diode (1 °C resolution). Stable benchmarks report their
// steady temperature; phase-structured benchmarks are simulated through
// several phase periods and report their observed range.
func RunTable1(o Options) (*Table1Result, error) {
	rig, err := newBaniasRig()
	if err != nil {
		return nil, err
	}
	model, calc, err := rig.calibrate()
	if err != nil {
		return nil, err
	}
	out := &Table1Result{}
	for _, row := range workload.Table1Stable {
		act, err := rig.meanActivity(row.Name)
		if err != nil {
			return nil, err
		}
		diode, _, err := rig.steadyDiode(model, calc, act)
		if err != nil {
			return nil, err
		}
		out.Stable = append(out.Stable, Table1Row{
			Name:      row.Name,
			Category:  workload.MustProfile(row.Name).Category.String(),
			MeasuredC: diode,
			PaperC:    row.TempC,
		})
	}
	// The ranging rows are independent walks, so they run on the worker
	// pool. Each walks its own model, because an armed model's exact-step
	// panels are mutable; calc and the diode are only read. Every walk
	// starts from InitSteadyState, so no state carries between rows and
	// a fresh model on the calibrated (memoized) template serves as well
	// as the calibrated model itself.
	ranging := workload.Table1Ranging
	out.Ranging = make([]Table1Range, len(ranging))
	err = parallel.ForEach(context.Background(), o.Parallelism, len(ranging),
		func(_ context.Context, i int) error {
			row := ranging[i]
			m, err := thermal.New(rig.fp, rig.tp)
			if err != nil {
				return err
			}
			if m.PreferExact(rangeStep) {
				if err := m.UseExact(rangeStep); err != nil {
					return err
				}
			}
			min, max, err := rig.rangeOf(m, calc, row.Name)
			if err != nil {
				return err
			}
			out.Ranging[i] = Table1Range{
				Name:     row.Name,
				Category: workload.MustProfile(row.Name).Category.String(),
				MinC:     min, MaxC: max,
				PaperMin: row.Min, PaperMax: row.Max,
			}
			return nil
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// rangeStep is the quasi-static step of a ranging row's phase walk.
const rangeStep = 10e-3

// rangeOf simulates a phase-structured benchmark through its phases and
// returns the min/max diode readings observed, mirroring the paper's
// repeated ACPI polling. It steps m as given: armed with UseExact at
// rangeStep, each step is the exact ZOH update, otherwise RK4.
func (b *baniasRig) rangeOf(m *thermal.Model, calc *power.Calculator, name string) (float64, float64, error) {
	prof, err := workload.Profile(name)
	if err != nil {
		return 0, 0, err
	}
	gen, err := uarch.NewGenerator(b.uc, prof)
	if err != nil {
		return 0, 0, err
	}
	// Initialize at the mean-power steady state (the paper waits a
	// minute after launch before polling).
	meanAct, err := b.meanActivity(name)
	if err != nil {
		return 0, 0, err
	}
	_, warm, err := b.steadyDiode(m, calc, meanAct)
	if err != nil {
		return 0, 0, err
	}
	temps := make(units.TempVec, len(b.fp.Blocks))
	cores := []power.CoreState{{Scale: 1}}
	p := calc.BlockPower(nil, meanAct, cores, warm)
	if err := m.InitSteadyState(p); err != nil {
		return 0, 0, err
	}

	// Walk the phase structure quasi-statically: 10 ms steps over two
	// full phase periods, polling the diode four times a second.
	total := 2 * prof.PhasePeriod
	steps := int(total / rangeStep)
	act := make([]float64, len(b.fp.Blocks))
	min, max := math.Inf(1), math.Inf(-1)
	intervalPerStep := rangeStep / b.uc.SampleSeconds()
	pollEvery := int(0.25 / rangeStep)
	for i := 0; i < steps; i++ {
		s := gen.Sample(int64(float64(i) * intervalPerStep))
		for j, blk := range b.fp.Blocks {
			act[j] = s.ActivityFor(blk.Kind)
		}
		calc.BlockPower(p, act, cores, m.BlockTemps(temps))
		m.SetPower(p)
		m.Step(rangeStep)
		if i%pollEvery == 0 && i > steps/8 {
			v := float64(b.diode.Sensors[0].Read(m.BlockTemps(temps), int64(i)))
			min = math.Min(min, v)
			max = math.Max(max, v)
		}
	}
	return min, max, nil
}

// Render implements Result.
func (t *Table1Result) Render() string {
	a := newTable("Table 1(a): steady-state Banias temperatures",
		"benchmark", "category", "measured (°C)", "paper (°C)")
	for _, r := range t.Stable {
		a.add(r.Name, r.Category, fmt.Sprintf("%.0f", r.MeasuredC), fmt.Sprintf("%.0f", r.PaperC))
	}
	b := newTable("Table 1(b): temperature ranges of non-steady benchmarks",
		"benchmark", "category", "measured (°C)", "paper (°C)")
	for _, r := range t.Ranging {
		b.add(r.Name, r.Category,
			fmt.Sprintf("%.0f-%.0f", r.MinC, r.MaxC),
			fmt.Sprintf("%.0f-%.0f", r.PaperMin, r.PaperMax))
	}
	return a.String() + "\n" + b.String()
}

// MaxStableError returns the largest |measured − paper| over Table 1a.
func (t *Table1Result) MaxStableError() float64 {
	var worst float64
	for _, r := range t.Stable {
		if e := math.Abs(r.MeasuredC - r.PaperC); e > worst {
			worst = e
		}
	}
	return worst
}
