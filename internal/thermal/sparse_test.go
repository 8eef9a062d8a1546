package thermal

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"multitherm/internal/floorplan"
	"multitherm/internal/linalg"
	"multitherm/internal/units"
)

const testDt = units.Seconds(100000.0 / 3.6e9) // the paper's sample period

// gridTemplate builds a generated-floorplan template sized past the
// sparse crossover, with the package scaled to fit.
func gridTemplate(t *testing.T, rows, cols int) *Template {
	t.Helper()
	fp, err := floorplan.Grid(floorplan.GridSpec{
		Rows: rows, Cols: cols,
		Pattern: floorplan.PatternMixedRows,
		Cooling: floorplan.CoolingEdgeBoost,
	})
	if err != nil {
		t.Fatal(err)
	}
	tmpl, err := TemplateFor(fp, FitParams(fp))
	if err != nil {
		t.Fatal(err)
	}
	return tmpl
}

// testPower fills a deterministic, spatially varying power pattern.
func testPower(n int, phase int) units.PowerVec {
	p := units.MakePowerVec(n)
	for i := range p {
		p[i] = 1.0 + 0.5*float64((i+phase)%5)
	}
	return p
}

// TestSparseMatchesDenseOnCMP4 is the sparse-vs-dense parity property
// test on the paper's 4-core grid: the CMP4 template sits below the
// crossover, so its memoized discretization is dense — but the sparse
// builder works on any template, and both represent the same exact ZOH
// update. Two models stepped side by side through 300 ticks of
// time-varying power, each in a one-lane batch built on its own
// discretization, must agree to the Krylov tolerance, not merely to
// integrator truncation error.
func TestSparseMatchesDenseOnCMP4(t *testing.T) {
	tmpl, err := TemplateFor(floorplan.CMP4(), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	dDense, err := tmpl.Discretization(testDt)
	if err != nil {
		t.Fatal(err)
	}
	if dDense.Sparse() {
		t.Fatalf("CMP4 (%d nodes) memoized a sparse discretization; want dense below the crossover", tmpl.n)
	}
	dSparse, err := tmpl.buildSparseDiscretization(float64(testDt))
	if err != nil {
		t.Fatal(err)
	}
	mD := tmpl.NewModel()
	mS := tmpl.NewModel()
	bD := newBatch([]*Model{mD}, dDense)
	bS := newBatch([]*Model{mS}, dSparse)
	nb := tmpl.NumBlocks()
	for tick := 0; tick < 300; tick++ {
		if tick%10 == 0 {
			pw := testPower(nb, tick/10)
			mD.SetPower(pw)
			mS.SetPower(pw)
		}
		bD.Step()
		bS.Step()
		for i := 0; i < tmpl.NumNodes(); i++ {
			diff := math.Abs(mD.temps[i] - mS.temps[i])
			if diff > 1e-6 {
				t.Fatalf("tick %d node %d: dense %.12g sparse %.12g (diff %g)",
					tick, i, mD.temps[i], mS.temps[i], diff)
			}
		}
	}
}

// TestGridPicksSparseAutomatically pins the crossover: generated grids
// above 64 nodes must memoize the Krylov representation, and stepping
// it must relax toward the CG steady state.
func TestGridPicksSparseAutomatically(t *testing.T) {
	tmpl := gridTemplate(t, 4, 4) // 64 blocks + 10 package nodes
	if tmpl.NumNodes() <= sparseCrossoverNodes {
		t.Fatalf("grid template has %d nodes; want > %d for this test", tmpl.NumNodes(), sparseCrossoverNodes)
	}
	d, err := tmpl.Discretization(testDt)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Sparse() {
		t.Fatalf("grid discretization mode %q; want sparse above the crossover", d.Mode())
	}
	if !tmpl.PreferExact(testDt) {
		t.Error("PreferExact = false for a sparse template; the batch path would fall back to RK4")
	}
	// The CG steady state must be a fixed point of the Krylov stepper:
	// start a model at equilibrium and verify stepping holds it there.
	pw := testPower(tmpl.NumBlocks(), 0)
	want, err := tmpl.SteadyState(pw)
	if err != nil {
		t.Fatal(err)
	}
	m := tmpl.NewModel()
	if err := m.InitSteadyState(pw); err != nil {
		t.Fatal(err)
	}
	if err := m.UseExact(testDt); err != nil {
		t.Fatal(err)
	}
	m.SetPower(pw)
	for tick := 0; tick < 3600; tick++ {
		m.Step(testDt)
	}
	for i := 0; i < tmpl.NumNodes(); i++ {
		if diff := math.Abs(m.temps[i] - float64(want[i])); diff > 1e-3 {
			t.Errorf("node %d: drifted to %.6f from steady %.6f over 0.1s", i, m.temps[i], float64(want[i]))
		}
	}
}

// TestSparseStepBitReproducible runs the same sparse trajectory twice
// and demands bitwise equality — the determinism contract behind
// //mtlint:deterministic.
func TestSparseStepBitReproducible(t *testing.T) {
	tmpl := gridTemplate(t, 4, 4)
	run := func() []float64 {
		m := tmpl.NewModel()
		if err := m.UseExact(testDt); err != nil {
			t.Fatal(err)
		}
		for tick := 0; tick < 50; tick++ {
			if tick%7 == 0 {
				m.SetPower(testPower(tmpl.NumBlocks(), tick))
			}
			m.Step(testDt)
		}
		out := make([]float64, tmpl.NumNodes())
		copy(out, m.temps)
		return out
	}
	a, b := run(), run()
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("node %d: %x vs %x across identical runs", i, math.Float64bits(a[i]), math.Float64bits(b[i]))
		}
	}
}

// TestSparseBatchBitIdenticalToSequential is the lockstep contract at
// the thermal layer: NewBatch over sparse lanes must reproduce
// sequential UseExact stepping bit for bit, per lane, including lanes
// with divergent power histories.
func TestSparseBatchBitIdenticalToSequential(t *testing.T) {
	tmpl := gridTemplate(t, 4, 4)
	const k = 3
	seq := make([][]float64, k)
	for l := 0; l < k; l++ {
		m := tmpl.NewModel()
		if err := m.UseExact(testDt); err != nil {
			t.Fatal(err)
		}
		for tick := 0; tick < 40; tick++ {
			if (tick+l)%5 == 0 {
				m.SetPower(testPower(tmpl.NumBlocks(), tick*7+l))
			}
			m.Step(testDt)
		}
		seq[l] = make([]float64, tmpl.NumNodes())
		copy(seq[l], m.temps)
	}
	models := make([]*Model, k)
	for l := range models {
		models[l] = tmpl.NewModel()
	}
	b, err := NewBatch(models, testDt)
	if err != nil {
		t.Fatal(err)
	}
	if b.SIMDAccelerated() {
		t.Error("sparse batch claims SIMD acceleration")
	}
	for tick := 0; tick < 40; tick++ {
		for l, m := range models {
			if (tick+l)%5 == 0 {
				m.SetPower(testPower(tmpl.NumBlocks(), tick*7+l))
			}
		}
		b.Step()
	}
	for l, m := range models {
		for i := 0; i < tmpl.NumNodes(); i++ {
			if math.Float64bits(m.temps[i]) != math.Float64bits(seq[l][i]) {
				t.Fatalf("lane %d node %d: batch %x sequential %x",
					l, i, math.Float64bits(m.temps[i]), math.Float64bits(seq[l][i]))
			}
		}
	}
}

// TestSparseSteadyStateMatchesDense cross-checks the CG solve — the
// SteadyState path above the crossover — against a dense LU reference
// assembled from the same conductance matrix.
func TestSparseSteadyStateMatchesDense(t *testing.T) {
	tmpl := gridTemplate(t, 4, 4) // above crossover: SteadyState goes through CG
	pw := testPower(tmpl.NumBlocks(), 2)
	viaCG, err := tmpl.SteadyState(pw)
	if err != nil {
		t.Fatal(err)
	}
	rhs := make([]float64, tmpl.n)
	copy(rhs, pw)
	for i, ga := range tmpl.gAmbient {
		rhs[i] += ga * float64(tmpl.params.Ambient)
	}
	viaLU, err := linalg.Solve(tmpl.ConductanceMatrix(), rhs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range viaLU {
		if diff := math.Abs(viaLU[i] - float64(viaCG[i])); diff > 1e-6 {
			t.Errorf("node %d: LU %.9f CG %.9f", i, viaLU[i], float64(viaCG[i]))
		}
	}
}

// TestCoolingBoostLowersTemps checks that per-position cooling reaches
// the thermal model: the edge-boosted grid must run cooler than the
// identical grid with uniform cooling under the same power.
func TestCoolingBoostLowersTemps(t *testing.T) {
	build := func(cooling floorplan.CoolingPolicy) units.TempVec {
		fp, err := floorplan.Grid(floorplan.GridSpec{
			Rows: 2, Cols: 2, Pattern: floorplan.PatternHomogeneous, Cooling: cooling,
		})
		if err != nil {
			t.Fatal(err)
		}
		tmpl, err := TemplateFor(fp, FitParams(fp))
		if err != nil {
			t.Fatal(err)
		}
		ss, err := tmpl.SteadyState(testPower(tmpl.NumBlocks(), 0))
		if err != nil {
			t.Fatal(err)
		}
		return ss
	}
	uniform := build(floorplan.CoolingUniform)
	boosted := build(floorplan.CoolingEdgeBoost)
	// On a 2x2 grid every tile is an edge tile, so every die node must
	// be strictly cooler with the boost.
	cooler := 0
	for i := range boosted {
		if float64(boosted[i]) < float64(uniform[i]) {
			cooler++
		}
	}
	if cooler == 0 {
		t.Errorf("edge boost left no node cooler (uniform hottest %.2f, boosted hottest %.2f)",
			maxTemp(uniform), maxTemp(boosted))
	}
}

func maxTemp(v units.TempVec) float64 {
	max := math.Inf(-1)
	for _, t := range v {
		if float64(t) > max {
			max = float64(t)
		}
	}
	return max
}

// TestFitParamsKeepsDefaultsForCMP4 pins that the paper's grid is
// untouched while oversized grids get a fitted package.
func TestFitParamsKeepsDefaultsForCMP4(t *testing.T) {
	if got, want := FitParams(floorplan.CMP4()), DefaultParams(); got != want {
		t.Errorf("FitParams(CMP4) = %+v, want DefaultParams", got)
	}
	fp, err := floorplan.Grid(floorplan.GridSpec{Rows: 16, Cols: 16, Pattern: floorplan.PatternMixedRows})
	if err != nil {
		t.Fatal(err)
	}
	p := FitParams(fp)
	if p.SpreaderSide < fp.ChipW {
		t.Errorf("fitted spreader %.3f smaller than chip %.3f", p.SpreaderSide, fp.ChipW)
	}
	if err := p.Validate(); err != nil {
		t.Errorf("fitted params invalid: %v", err)
	}
	if _, err := TemplateFor(fp, p); err != nil {
		t.Errorf("16x16 grid template: %v", err)
	}
}

// TestSparseStepAllocationFree backs the zero-alloc annotations on the
// sparse tick paths at the thermal layer.
func TestSparseStepAllocationFree(t *testing.T) {
	tmpl := gridTemplate(t, 4, 4)
	m := tmpl.NewModel()
	if err := m.UseExact(testDt); err != nil {
		t.Fatal(err)
	}
	pw := testPower(tmpl.NumBlocks(), 0)
	if got := testing.AllocsPerRun(20, func() {
		m.SetPower(pw)
		m.Step(testDt)
	}); got != 0 {
		t.Errorf("sparse Model.Step allocates %v per run", got)
	}
	models := []*Model{tmpl.NewModel(), tmpl.NewModel(), tmpl.NewModel(), tmpl.NewModel()}
	b, err := NewBatch(models, testDt)
	if err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(20, func() {
		for _, m := range models {
			m.SetPower(pw)
		}
		b.Step()
	}); got != 0 {
		t.Errorf("sparse BatchModel.Step allocates %v per run", got)
	}
}

// TestSparseStepBitsPinned pins every bit of the sparse exact step.
// On each generated grid it runs a 3-lane batch and a lone UseExact
// model through 400 ticks of lane-distinct power and hashes the
// Float64bits of every model's node temperatures, lanes first, then
// the lone model, against a recorded SHA-256 digest. A kernel change
// that moves one bit of one node on one tick fails here; the reports
// round to 0.01 °C, and the batch-vs-sequential test compares two runs
// of one kernel, so neither would catch it. The sparse path is pure
// Go, so the digests hold in the noasm build too. The Go compiler
// fuses multiply-adds on arm64 and other FMA targets, which moves the
// bits, but never on amd64, where the digests were recorded.
func TestSparseStepBitsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	for _, tc := range []struct {
		side   int
		digest string
	}{
		{4, "48508d41eb812e660a8f7c09fb4ea18d9fc3954e45af26f9ad32517d4a6019b2"},
		{8, "f36009220bcc7134bf672a841eee0d7b0c0298b7cded7bc65d3d0e18222d2a5b"},
		{16, "78965526a7eb12d709f7a2fe2a82b09962db2dd2a86369784003958d9abc2b8f"},
	} {
		side := tc.side
		tmpl := gridTemplate(t, side, side)
		nb := tmpl.NumBlocks()
		const k = 3
		lanes := make([]*Model, k)
		for l := range lanes {
			lanes[l] = tmpl.NewModel()
		}
		b, err := NewBatch(lanes, testDt)
		if err != nil {
			t.Fatal(err)
		}
		lone := tmpl.NewModel()
		if err := lone.UseExact(testDt); err != nil {
			t.Fatal(err)
		}
		for tick := 0; tick < 400; tick++ {
			for l, m := range lanes {
				m.SetPower(testPower(nb, tick+l))
			}
			lone.SetPower(testPower(nb, tick+k))
			b.Step()
			lone.Step(testDt)
		}
		h := sha256.New()
		var buf [8]byte
		for _, m := range append(lanes, lone) {
			for _, v := range m.temps {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
				h.Write(buf[:])
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.digest {
			t.Errorf("%dx%d grid: digest %s, want %s", side, side, got, tc.digest)
		}
	}
}
