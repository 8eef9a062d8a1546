package trace

import (
	"math"
	"testing"
	"testing/quick"

	"multitherm/internal/uarch"
)

func testGenerator(t testing.TB) *uarch.Generator {
	t.Helper()
	prof := uarch.Profile{
		Name: "tracegen", Category: uarch.SPECint,
		IntOps: 0.45, Loads: 0.22, Stores: 0.12, Branches: 0.18, FPOps: 0.03,
		ILP: 2.5, L1MissRate: 0.03, L2MissRate: 0.1, MLP: 2, Mispredict: 0.05,
		PhaseAmplitude: 0.2, PhasePeriod: 0.02, NoiseAmplitude: 0.05, Seed: 99,
	}
	g, err := uarch.NewGenerator(uarch.DefaultConfig(), prof)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func testTrace(t testing.TB, n int) *Trace {
	t.Helper()
	tr, err := Record(testGenerator(t), n)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestRecordAndValidate(t *testing.T) {
	tr := testTrace(t, 100)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 100 {
		t.Errorf("Len = %d", tr.Len())
	}
	if tr.Benchmark != "tracegen" {
		t.Errorf("Benchmark = %q", tr.Benchmark)
	}
	wantDur := 100 * uarch.DefaultConfig().SampleSeconds()
	if math.Abs(tr.Duration()-wantDur) > 1e-12 {
		t.Errorf("Duration = %v, want %v", tr.Duration(), wantDur)
	}
}

func TestRecordRejectsBadCount(t *testing.T) {
	if _, err := Record(testGenerator(t), 0); err == nil {
		t.Error("zero-length record accepted")
	}
}

func TestAtWraparound(t *testing.T) {
	tr := testTrace(t, 10)
	if tr.At(0) != tr.At(10) || tr.At(3) != tr.At(23) {
		t.Error("At does not wrap around")
	}
	if tr.At(-1) != tr.At(9) {
		t.Error("negative index does not wrap")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	tr := testTrace(t, 5)
	tr.Samples[2].Activity[1] = 1.5
	if err := tr.Validate(); err == nil {
		t.Error("out-of-range activity accepted")
	}
	tr = testTrace(t, 5)
	tr.Samples[0].Instructions = math.NaN()
	if err := tr.Validate(); err == nil {
		t.Error("NaN instructions accepted")
	}
	tr = testTrace(t, 5)
	tr.Benchmark = ""
	if err := tr.Validate(); err == nil {
		t.Error("empty benchmark accepted")
	}
	empty := &Trace{Benchmark: "x", SampleSeconds: 1}
	if err := empty.Validate(); err == nil {
		t.Error("empty sample list accepted")
	}
}

func TestCursorFullSpeedAdvance(t *testing.T) {
	tr := testTrace(t, 50)
	c := NewCursor(tr)
	var retired float64
	for i := 0; i < 50; i++ {
		retired += c.Advance(1.0)
	}
	// At scale 1.0, one full pass retires exactly the sum of the trace.
	var want float64
	for i := range tr.Samples {
		want += tr.Samples[i].Instructions
	}
	if math.Abs(retired-want) > 1e-6*want {
		t.Errorf("retired %v, want %v", retired, want)
	}
	if math.Abs(c.Position()-50) > 1e-9 {
		t.Errorf("position %v, want 50", c.Position())
	}
}

func TestCursorScaledAdvance(t *testing.T) {
	// Advancing at scale s for n steps covers s·n sample-widths and
	// retires proportionally fewer instructions — the DVFS slowdown.
	tr := testTrace(t, 40)
	full := NewCursor(tr)
	half := NewCursor(tr)
	var rFull, rHalf float64
	for i := 0; i < 40; i++ {
		rFull += full.Advance(1.0)
		rHalf += half.Advance(0.5)
	}
	if math.Abs(half.Position()-20) > 1e-9 {
		t.Errorf("half-speed position %v, want 20", half.Position())
	}
	if rHalf >= rFull {
		t.Error("half speed retired at least as much as full speed")
	}
}

func TestCursorAdvanceSplitsAcrossSamples(t *testing.T) {
	tr := testTrace(t, 4)
	// Force distinct instruction counts.
	for i := range tr.Samples {
		tr.Samples[i].Instructions = float64((i + 1) * 1000)
	}
	c := NewCursor(tr)
	got := c.Advance(2.5) // crosses samples 0,1 fully and half of 2
	want := 1000.0 + 2000 + 0.5*3000
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("retired %v, want %v", got, want)
	}
}

func TestCursorAdvanceZero(t *testing.T) {
	tr := testTrace(t, 5)
	c := NewCursor(tr)
	if r := c.Advance(0); r != 0 {
		t.Errorf("zero advance retired %v", r)
	}
}

func TestCursorNegativePanics(t *testing.T) {
	tr := testTrace(t, 5)
	c := NewCursor(tr)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.Advance(-0.1)
}

func TestCursorConservationProperty(t *testing.T) {
	// Total retired instructions depend only on total distance covered,
	// not on the step pattern.
	tr := testTrace(t, 30)
	f := func(steps []uint8) bool {
		if len(steps) == 0 {
			return true
		}
		c1 := NewCursor(tr)
		c2 := NewCursor(tr)
		var total, r1 float64
		for _, s := range steps {
			step := float64(s%100) / 50.0 // 0..2 sample widths
			total += step
			r1 += c1.Advance(step)
		}
		r2 := c2.Advance(total)
		return math.Abs(r1-r2) < 1e-6*(1+r2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMeanInstructions(t *testing.T) {
	tr := testTrace(t, 3)
	for i := range tr.Samples {
		tr.Samples[i].Instructions = float64(i * 100) // 0,100,200
	}
	if got := tr.MeanInstructionsPerSample(); got != 100 {
		t.Errorf("mean = %v, want 100", got)
	}
}
