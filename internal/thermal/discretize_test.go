package thermal

import (
	"math"
	"math/rand"
	"testing"

	"multitherm/internal/floorplan"
	"multitherm/internal/linalg"
	"multitherm/internal/units"
)

// paperTick is the 28 µs control period the simulator steps at
// (100k cycles at 3.6 GHz), duplicated here to keep the package free of
// an import cycle with control.
const paperTick units.Seconds = 100000.0 / 3.6e9

func newExactModel(t *testing.T, dt units.Seconds) *Model {
	t.Helper()
	m, err := New(floorplan.CMP4(), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.UseExact(dt); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestExactMatchesRK4RandomSchedule is the headline property test: over
// a randomized multi-tick power schedule, the exact ZOH path and the
// RK4 reference must track each other far inside the sweep's 0.01 °C
// equivalence budget. At 28 µs the local truncation error of RK4 is
// O((dt/τ)⁵) ≈ 1e-13, so the two integrators are expected to agree to
// sub-µK per tick; any systematic drift indicates a wrong Φ or Ψ.
func TestExactMatchesRK4RandomSchedule(t *testing.T) {
	const dt = paperTick
	exact := newExactModel(t, dt)
	ref, err := New(floorplan.CMP4(), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(42))
	nb := exact.NumBlocks()
	watts := make(units.PowerVec, nb)
	warm := make(units.PowerVec, nb)
	for i := range warm {
		warm[i] = 2
	}
	if err := exact.InitSteadyState(warm); err != nil {
		t.Fatal(err)
	}
	ref.SetNodeTemps(exact.NodeTemps())

	const ticks = 2000
	var worst float64
	for s := 0; s < ticks; s++ {
		// Piecewise-constant schedule with occasional bursts, changing
		// every few ticks like a real activity trace.
		if s%3 == 0 {
			for i := range watts {
				watts[i] = 6 * rng.Float64()
				if rng.Intn(8) == 0 {
					watts[i] += 20 // hotspot burst
				}
			}
		}
		exact.SetPower(watts)
		ref.SetPower(watts)
		exact.Step(dt)
		ref.Step(dt)
		for i := 0; i < exact.NumNodes(); i++ {
			if d := math.Abs(exact.temps[i] - ref.temps[i]); d > worst {
				worst = d
			}
		}
	}
	if worst > 1e-6 {
		t.Fatalf("exact vs RK4 diverged: worst node error %g °C over %d ticks", worst, ticks)
	}
	t.Logf("worst node error %.3g °C over %d ticks", worst, ticks)
}

// TestExactSteadyStateEnergyConservation drives the exact path with a
// step size far beyond the RK4 stability bound — where the ZOH update
// is unconditionally stable — until equilibrium, and checks the heat
// flowing into the ambient equals the input power.
func TestExactSteadyStateEnergyConservation(t *testing.T) {
	const dt = 1.0 // ≈ 60× hMax: pure RK4 would need dozens of substeps
	m := newExactModel(t, dt)
	if dt < 2*m.MaxStableStep() {
		t.Fatalf("test premise broken: dt %g not past stability bound %g", dt, m.MaxStableStep())
	}
	watts := make(units.PowerVec, m.NumBlocks())
	var total float64
	for i := range watts {
		watts[i] = 1.5 + 0.1*float64(i%7)
		total += watts[i]
	}
	m.SetPower(watts)
	for s := 0; s < 2400; s++ { // 40 minutes simulated: ≫ sink time constant (~72 s)
		m.Step(dt)
	}
	out := m.HeatFlowToAmbient()
	if rel := math.Abs(float64(out)-total) / total; rel > 1e-6 {
		t.Fatalf("ambient outflow %g W vs input %g W (rel %g)", out, total, rel)
	}
	// Cross-check the state against the direct linear solve.
	ss, err := m.SteadyState(watts)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range ss {
		if math.Abs(m.temps[i]-want) > 1e-6 {
			t.Fatalf("node %d: exact steady state %g, solver %g", i, m.temps[i], want)
		}
	}
}

// TestExactOffGridFallsBackToRK4 checks that a Step at a dt other than
// the armed one runs the RK4 path bit-identically to a model that never
// armed the exact path.
func TestExactOffGridFallsBackToRK4(t *testing.T) {
	exact := newExactModel(t, paperTick)
	plain, err := New(floorplan.CMP4(), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	watts := make(units.PowerVec, exact.NumBlocks())
	for i := range watts {
		watts[i] = 4
	}
	exact.SetPower(watts)
	plain.SetPower(watts)
	off := units.Seconds(3.1e-5) // not the armed dt
	for s := 0; s < 50; s++ {
		exact.Step(off)
		plain.Step(off)
	}
	for i := range plain.temps {
		if exact.temps[i] != plain.temps[i] {
			t.Fatalf("off-grid step diverged at node %d: %g vs %g",
				i, exact.temps[i], plain.temps[i])
		}
	}
}

// TestExactMixedGridSteps interleaves on-grid exact ticks with off-grid
// RK4 remainders on shared state; the pair must land within the RK4
// reference's own error of an all-RK4 model.
func TestExactMixedGridSteps(t *testing.T) {
	exact := newExactModel(t, paperTick)
	plain, err := New(floorplan.CMP4(), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	watts := make(units.PowerVec, exact.NumBlocks())
	for i := range watts {
		watts[i] = 5
	}
	exact.SetPower(watts)
	plain.SetPower(watts)
	for s := 0; s < 200; s++ {
		exact.Step(paperTick)
		plain.Step(paperTick)
		if s%10 == 0 {
			exact.Step(paperTick / 3)
			plain.Step(paperTick / 3)
		}
	}
	for i := range plain.temps {
		if d := math.Abs(exact.temps[i] - plain.temps[i]); d > 1e-7 {
			t.Fatalf("mixed-grid state off at node %d by %g °C", i, d)
		}
	}
}

// TestDiscretizationMemoized verifies the (Template, dt) cache returns
// the identical instance and that distinct dts get distinct ones.
func TestDiscretizationMemoized(t *testing.T) {
	tpl, err := TemplateFor(floorplan.CMP4(), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	d1, err := tpl.Discretization(paperTick)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := tpl.Discretization(paperTick)
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Fatal("same (template, dt) built two discretizations")
	}
	d3, err := tpl.Discretization(2 * paperTick)
	if err != nil {
		t.Fatal(err)
	}
	if d3 == d1 || d3.Dt() != 2*paperTick {
		t.Fatal("distinct dt should build a distinct discretization")
	}
}

// TestPaperTickTakesSIMDPath pins the dispatch every paper cell relies
// on: where the vectorized kernel exists, the 55-node CMP4 template at
// the paper tick must prefer the exact step and get a dense
// discretization that runs that kernel. Losing either sends every
// paper tick back to substepped RK4 or the generic loop; the results
// stay within tolerance, so no result-checking test would notice.
func TestPaperTickTakesSIMDPath(t *testing.T) {
	if !linalg.SIMDEnabled() {
		t.Skip("no vectorized kernel in this build or on this CPU")
	}
	tpl, err := TemplateFor(floorplan.CMP4(), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if !tpl.PreferExact(paperTick) {
		t.Fatal("PreferExact(paper tick) = false for the CMP4 template")
	}
	d, err := tpl.Discretization(paperTick)
	if err != nil {
		t.Fatal(err)
	}
	if !d.SIMDAccelerated() {
		t.Fatal("CMP4 discretization at the paper tick does not run the SIMD kernel")
	}
}

// TestDiscretizationRejectsBadStep covers the error path.
func TestDiscretizationRejectsBadStep(t *testing.T) {
	tpl, err := TemplateFor(floorplan.CMP4(), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, dt := range []units.Seconds{0, -1e-6} {
		if _, err := tpl.Discretization(dt); err == nil {
			t.Fatalf("dt=%g accepted", dt)
		}
	}
}

// TestExactStepZeroAllocs pins a lone model's exact step — one tick of
// its one-lane batch — at zero allocations, with and without new power
// between ticks.
func TestExactStepZeroAllocs(t *testing.T) {
	m := newExactModel(t, paperTick)
	watts := make(units.PowerVec, m.NumBlocks())
	for i := range watts {
		watts[i] = 3
	}
	m.SetPower(watts)
	allocs := testing.AllocsPerRun(200, func() {
		m.SetPower(watts)
		m.Step(paperTick)
		m.Step(paperTick)
	})
	if allocs != 0 {
		t.Fatalf("exact step allocated %.1f times per tick pair", allocs)
	}
}

// TestExactPhiRowsSumBelowOne checks a physical invariant of the
// propagator: with the ambient as heat sink, Φ is substochastic-like —
// a uniform temperature field decays toward ambient, so each row of Φ
// sums to at most 1, and strictly below 1 for nodes coupled to ambient.
func TestExactPhiRowsSumBelowOne(t *testing.T) {
	tpl, err := TemplateFor(floorplan.CMP4(), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	d, err := tpl.Discretization(paperTick)
	if err != nil {
		t.Fatal(err)
	}
	n := tpl.NumNodes()
	for i := 0; i < n; i++ {
		var s float64
		for j := 0; j < n; j++ {
			s += d.Phi(i, j)
		}
		if s > 1+1e-12 {
			t.Fatalf("row %d of Φ sums to %g > 1: spurious heat creation", i, s)
		}
		if s < 0.9 {
			t.Fatalf("row %d of Φ sums to %g: implausible decay in one 28 µs tick", i, s)
		}
	}
}

// TestExactDeterministicAcrossModels stamps two exact models from the
// shared template and verifies bit-identical trajectories — the
// property the parallel sweep's byte-identical output relies on.
func TestExactDeterministicAcrossModels(t *testing.T) {
	a := newExactModel(t, paperTick)
	b := newExactModel(t, paperTick)
	rng := rand.New(rand.NewSource(7))
	watts := make(units.PowerVec, a.NumBlocks())
	for s := 0; s < 500; s++ {
		for i := range watts {
			watts[i] = 8 * rng.Float64()
		}
		a.SetPower(watts)
		b.SetPower(watts)
		a.Step(paperTick)
		b.Step(paperTick)
	}
	for i := range a.temps {
		if a.temps[i] != b.temps[i] {
			t.Fatalf("node %d diverged across identical models: %g vs %g",
				i, a.temps[i], b.temps[i])
		}
	}
}
