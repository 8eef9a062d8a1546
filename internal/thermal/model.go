// Package thermal implements a HotSpot-style compact thermal model
// (paper §3.2): the die floorplan becomes a network of thermal
// resistances and capacitances — "a method analogous to calculating
// voltages in a circuit made up of resistors and capacitors" — including
// the thermal interface material, heat spreader, heat sink, and fan
// convection. The model supports both transient integration (required
// for the paper's adaptive-control experiments) and steady-state solves.
//
// Construction is split in two: an immutable Template holds everything
// derived from (floorplan, Params) — node capacitances, the conductance
// network in CSR form, and the explicit-integration stability bound —
// and stamps out lightweight Models that add only mutable state
// (temperatures, power inputs, integrator scratch). Templates are safe
// to share across goroutines, so a parallel sweep builds the RC network
// once per configuration instead of once per run.
//
//mtlint:deterministic
package thermal

import (
	"fmt"
	"math"

	"multitherm/internal/floorplan"
	"multitherm/internal/linalg"
	"multitherm/internal/linalg/sparse"
	"multitherm/internal/memo"
	"multitherm/internal/units"
)

// Params holds the physical package parameters of the thermal model.
// Defaults correspond to a 90 nm-class part with a copper spreader,
// aluminum finned sink, and forced-air convection, in the ranges HotSpot
// 2.0 ships with.
type Params struct {
	// Die
	DieThickness float64 // m
	KSilicon     float64 // W/(m·K)
	CSilicon     float64 // volumetric heat capacity, J/(m³·K)

	// Thermal interface material between die and spreader. Modeled as
	// pure resistance (negligible heat capacity).
	TIMThickness float64 // m
	KTIM         float64 // W/(m·K)

	// Heat spreader (copper plate)
	SpreaderSide      float64 // m, square side
	SpreaderThickness float64 // m
	KSpreader         float64 // W/(m·K)
	CSpreader         float64 // J/(m³·K)

	// Heat sink base (aluminum)
	SinkSide      float64 // m, square side
	SinkThickness float64 // m
	KSink         float64 // W/(m·K)
	CSink         float64 // J/(m³·K)
	// SinkMassFactor multiplies the sink base capacitance to account for
	// fin mass lumped into the base nodes.
	SinkMassFactor float64

	// Convection from sink to ambient (fan + fins), total for the sink.
	ConvectionResistance float64 // K/W
	Ambient              units.Celsius
}

// DefaultParams returns the package configuration used for the paper's
// 4-core experiments.
func DefaultParams() Params {
	return Params{
		DieThickness: 1.0e-3,
		KSilicon:     50,
		CSilicon:     1.75e6,

		TIMThickness: 40e-6,
		KTIM:         2,

		SpreaderSide:      30e-3,
		SpreaderThickness: 1e-3,
		KSpreader:         400,
		CSpreader:         3.55e6,

		SinkSide:       60e-3,
		SinkThickness:  7e-3,
		KSink:          240,
		CSink:          2.4e6,
		SinkMassFactor: 4,

		ConvectionResistance: 0.30,
		Ambient:              45,
	}
}

// Validate checks the parameters for physical plausibility.
func (p Params) Validate() error {
	// Checked in declaration order (not a map) so the reported parameter
	// is deterministic when several are invalid.
	pos := []struct {
		name string
		v    float64
	}{
		{"DieThickness", p.DieThickness}, {"KSilicon", p.KSilicon}, {"CSilicon", p.CSilicon},
		{"TIMThickness", p.TIMThickness}, {"KTIM", p.KTIM},
		{"SpreaderSide", p.SpreaderSide}, {"SpreaderThickness", p.SpreaderThickness},
		{"KSpreader", p.KSpreader}, {"CSpreader", p.CSpreader},
		{"SinkSide", p.SinkSide}, {"SinkThickness", p.SinkThickness},
		{"KSink", p.KSink}, {"CSink", p.CSink}, {"SinkMassFactor", p.SinkMassFactor},
		{"ConvectionResistance", p.ConvectionResistance},
	}
	for _, c := range pos {
		if c.v <= 0 {
			return fmt.Errorf("thermal: parameter %s must be positive, got %g", c.name, c.v)
		}
	}
	if p.SpreaderSide < 1e-3 || p.SinkSide < p.SpreaderSide {
		return fmt.Errorf("thermal: sink (%g) must be at least spreader (%g) size",
			p.SinkSide, p.SpreaderSide)
	}
	return nil
}

// edge is one thermal conductance between two internal nodes.
type edge struct {
	a, b int
	g    float64 // W/K
}

// Template is the immutable part of an assembled RC network: node
// capacitances, the conductance graph (both as an edge list for dense
// steady-state assembly and in CSR form for the transient kernel), and
// the precomputed explicit-integration stability bound. A Template is
// read-only after construction and may be shared freely across
// goroutines; call NewModel to stamp out integrable instances.
//
// Node order: die blocks first (same indices as the floorplan), then
// spreader center, spreader N/E/S/W periphery, sink center, sink
// N/E/S/W periphery.
type Template struct {
	fp     *floorplan.Floorplan
	params Params

	n        int // total internal nodes
	nBlocks  int
	names    []string
	cap      []float64 // J/K per node
	edges    []edge
	gAmbient []float64 // conductance from node straight to ambient, W/K

	// adjacency in CSR form for the transient kernel: neighbors of node
	// i are colIdx[rowPtr[i]:rowPtr[i+1]] with conductances at the same
	// positions in colG.
	rowPtr  []int32
	colIdx  []int32
	colG    []float64
	nbrIdx  [][]int32   // per-row views into colIdx
	nbrG    [][]float64 // per-row views into colG
	gTotal  []float64   // Σ_j G_ij + gAmbient_i per node
	invCap  []float64   // 1/C_i, precomputed so the kernel multiplies instead of divides
	ambFlow []float64   // gAmbient_i·T_amb, the constant inflow from the ambient

	// The same network in the sparse package's CSR form: gsp is the
	// conductance matrix G (for the CG steady-state solve) and asp is
	// the transient generator A = −C⁻¹G (for the Krylov propagator).
	// Built eagerly — assembly is O(nnz) — so sharing the template
	// across goroutines never races on lazy construction.
	gsp *sparse.CSR
	asp *sparse.CSR

	// hMax is the RK4 stability bound, invariant for the network and
	// hoisted here at build time so Step need not rescan the graph.
	hMax float64

	// discCache memoizes exact ZOH discretizations keyed by dt; see
	// Template.Discretization. Copy-on-write: a lookup on the sweep's
	// hot construction path is one atomic load, with no contention
	// against concurrent first-builds of other step sizes.
	discCache memo.Map[float64, *Discretization]
}

// Model is one integrable instance of a Template: the shared immutable
// network plus per-run mutable state (temperatures, power inputs, and
// RK4 scratch buffers). Models are cheap to create and must not be
// shared across goroutines; stamp one per concurrent simulation.
type Model struct {
	*Template

	temps []float64 // current state, °C
	power []float64 // current die-block power, W (len nBlocks)

	// scratch buffers for the fused RK4 kernel
	acc, tmpA, tmpB []float64

	// exact is the one-lane lockstep batch UseExact adopts the model
	// into (nil = RK4 only): while armed, temps and power alias its
	// panels and Step at its dt advances through it.
	exact *BatchModel
}

// Node index helpers (offsets after the die blocks).
const (
	nodeSpreaderCenter = iota
	nodeSpreaderN
	nodeSpreaderE
	nodeSpreaderS
	nodeSpreaderW
	nodeSinkCenter
	nodeSinkN
	nodeSinkE
	nodeSinkS
	nodeSinkW
	numPackageNodes
)

// NewTemplate assembles the immutable RC network for the floorplan.
func NewTemplate(fp *floorplan.Floorplan, p Params) (*Template, error) {
	if err := fp.Validate(); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if fp.ChipW > p.SpreaderSide || fp.ChipH > p.SpreaderSide {
		return nil, fmt.Errorf("thermal: chip (%g×%g) larger than spreader (%g)",
			fp.ChipW, fp.ChipH, p.SpreaderSide)
	}
	nb := len(fp.Blocks)
	t := &Template{
		fp:      fp,
		params:  p,
		nBlocks: nb,
		n:       nb + numPackageNodes,
	}
	t.names = make([]string, t.n)
	t.cap = make([]float64, t.n)
	t.gAmbient = make([]float64, t.n)
	for i, b := range fp.Blocks {
		t.names[i] = b.Name
		t.cap[i] = p.CSilicon * b.Area() * p.DieThickness
	}
	pkgNames := []string{"spreader_c", "spreader_n", "spreader_e", "spreader_s",
		"spreader_w", "sink_c", "sink_n", "sink_e", "sink_s", "sink_w"}
	for i, s := range pkgNames {
		t.names[nb+i] = s
	}

	t.buildDieLateral()
	t.buildVerticalPath()
	t.buildSpreader()
	t.buildSink()
	// Per-position cooling from the floorplan: extra conductance
	// straight to ambient on individual die blocks (e.g. the edge
	// tiles of a generated many-core grid sitting under stronger
	// airflow). Applied before indexEdges so gTotal, ambFlow, and the
	// stability bound all see the boosted path.
	for i, b := range fp.Blocks {
		t.gAmbient[i] += b.CoolingBoost
	}

	t.indexEdges()
	t.invCap = make([]float64, t.n)
	t.ambFlow = make([]float64, t.n)
	for i, c := range t.cap {
		t.invCap[i] = 1 / c
		t.ambFlow[i] = t.gAmbient[i] * float64(p.Ambient)
	}
	t.buildSparse()
	t.hMax = t.computeMaxStableStep()
	return t, nil
}

// buildSparse assembles the CSR forms of the conductance matrix and
// the transient generator from the indexed adjacency. The kernels need
// only a consistent row order, which the Builder's column sort gives.
func (t *Template) buildSparse() {
	gb := sparse.NewBuilder(t.n, t.n)
	ab := sparse.NewBuilder(t.n, t.n)
	for i := 0; i < t.n; i++ {
		gb.Add(i, i, t.gTotal[i])
		ab.Add(i, i, -t.gTotal[i]*t.invCap[i])
		for k, j := range t.nbrIdx[i] {
			g := t.nbrG[i][k]
			gb.Add(i, int(j), -g)
			ab.Add(i, int(j), g*t.invCap[i])
		}
	}
	t.gsp = gb.Build()
	t.asp = ab.Build()
}

// templateKey identifies a memoized template. Floorplans are treated as
// immutable, so pointer identity suffices; Params is a comparable value.
type templateKey struct {
	fp *floorplan.Floorplan
	p  Params
}

var templates memo.Map[templateKey, *Template]

// TemplateFor returns the memoized template for (floorplan, params),
// building it on first use. Concurrent callers may race to build the
// same template; exactly one wins and is shared thereafter. The cache
// is copy-on-write, so the per-cell lookup every simulation makes is a
// single atomic load with nothing to contend on.
func TemplateFor(fp *floorplan.Floorplan, p Params) (*Template, error) {
	return templates.LoadOrStore(templateKey{fp: fp, p: p}, func() (*Template, error) {
		return NewTemplate(fp, p)
	})
}

// NewModel stamps out an integrable instance sharing this template's
// immutable arrays, initialized to a uniform ambient temperature.
func (t *Template) NewModel() *Model {
	m := &Model{
		Template: t,
		temps:    make([]float64, t.n),
		// power spans all nodes (package entries stay zero) so the RK4
		// stages add it unconditionally in one branch-free loop.
		power: make([]float64, t.n),
		acc:   make([]float64, t.n),
		tmpA:  make([]float64, t.n),
		tmpB:  make([]float64, t.n),
	}
	for i := range m.temps {
		m.temps[i] = float64(t.params.Ambient)
	}
	return m
}

// New assembles the thermal model for the floorplan through the
// template cache, so repeated construction for the same configuration
// reuses the precomputed network.
func New(fp *floorplan.Floorplan, p Params) (*Model, error) {
	t, err := TemplateFor(fp, p)
	if err != nil {
		return nil, err
	}
	return t.NewModel(), nil
}

// buildDieLateral adds conductances between adjacent die blocks:
// G = k_si · t_die · sharedEdge / centerDistance.
func (t *Template) buildDieLateral() {
	p := t.params
	for _, a := range t.fp.Adjacencies() {
		g := p.KSilicon * p.DieThickness * a.Length / a.Dist
		t.edges = append(t.edges, edge{a: a.I, b: a.J, g: g})
	}
}

// buildVerticalPath connects each die block to the spreader center
// through half the die thickness, the TIM, and a 45° spreading term into
// the copper.
func (t *Template) buildVerticalPath() {
	p := t.params
	spc := t.nBlocks + nodeSpreaderCenter
	for i, b := range t.fp.Blocks {
		area := b.Area()
		rDie := p.DieThickness / (2 * p.KSilicon * area)
		rTIM := p.TIMThickness / (p.KTIM * area)
		// Heat spreads at ~45° through the spreader plate: the effective
		// conduction area grows by the plate thickness on each side.
		spreadArea := (b.W + p.SpreaderThickness) * (b.H + p.SpreaderThickness)
		rSpread := p.SpreaderThickness / (2 * p.KSpreader * spreadArea)
		g := 1 / (rDie + rTIM + rSpread)
		t.edges = append(t.edges, edge{a: i, b: spc, g: g})
	}
	// Spreader center capacitance covers the chip-shadow volume.
	t.cap[spc] = p.CSpreader * t.fp.ChipW * t.fp.ChipH * p.SpreaderThickness
}

// buildSpreader wires the spreader center to its four peripheral slabs
// and down to the sink center.
func (t *Template) buildSpreader() {
	p := t.params
	nb := t.nBlocks
	spc := nb + nodeSpreaderCenter
	chipSide := math.Sqrt(t.fp.ChipW * t.fp.ChipH)
	slabW := (p.SpreaderSide - chipSide) / 2 // radial extent of each peripheral slab
	if slabW <= 0 {
		slabW = p.SpreaderSide * 0.05
	}
	for k, node := range []int{nodeSpreaderN, nodeSpreaderE, nodeSpreaderS, nodeSpreaderW} {
		_ = k
		idx := nb + node
		// Lateral conduction from the chip-shadow region into the slab:
		// cross-section = plate thickness × chip side; path length from
		// shadow edge to slab centroid.
		dist := chipSide/4 + slabW/2
		g := p.KSpreader * p.SpreaderThickness * chipSide / dist
		t.edges = append(t.edges, edge{a: spc, b: idx, g: g})
		// Peripheral slab volume: slabW × spreaderSide × thickness / the
		// four slabs overlap corners — divide the non-shadow area evenly.
		nonShadow := p.SpreaderSide*p.SpreaderSide - chipSide*chipSide
		t.cap[idx] = p.CSpreader * nonShadow / 4 * p.SpreaderThickness
		// Each peripheral spreader slab also conducts down into the sink
		// base above it.
		slabArea := nonShadow / 4
		rv := p.SpreaderThickness/(2*p.KSpreader*slabArea) +
			p.SinkThickness/(2*p.KSink*slabArea)
		t.edges = append(t.edges, edge{a: idx, b: nb + nodeSinkCenter, g: 1 / rv})
	}
	// Vertical: spreader center → sink center across the chip shadow,
	// with 45° spreading into the sink base.
	sinkSpreadArea := (chipSide + p.SinkThickness) * (chipSide + p.SinkThickness)
	rv := p.SpreaderThickness/(2*p.KSpreader*chipSide*chipSide) +
		p.SinkThickness/(2*p.KSink*sinkSpreadArea)
	t.edges = append(t.edges, edge{a: spc, b: nb + nodeSinkCenter, g: 1 / rv})
}

// buildSink wires the sink center to its peripheral slabs and attaches
// convection to ambient across all sink nodes in proportion to area.
func (t *Template) buildSink() {
	p := t.params
	nb := t.nBlocks
	skc := nb + nodeSinkCenter
	centerSide := p.SpreaderSide // sink center region shadows the spreader
	t.cap[skc] = p.CSink * centerSide * centerSide * p.SinkThickness * p.SinkMassFactor

	nonShadow := p.SinkSide*p.SinkSide - centerSide*centerSide
	slabArea := nonShadow / 4
	slabW := (p.SinkSide - centerSide) / 2
	if slabW <= 0 {
		slabW = p.SinkSide * 0.05
	}
	totalArea := p.SinkSide * p.SinkSide
	// Convection: split the total sink-to-air conductance across nodes
	// by their plan area (fins assumed uniformly distributed).
	gConvTotal := 1 / p.ConvectionResistance
	t.gAmbient[skc] = gConvTotal * (centerSide * centerSide) / totalArea
	for _, node := range []int{nodeSinkN, nodeSinkE, nodeSinkS, nodeSinkW} {
		idx := nb + node
		dist := centerSide/4 + slabW/2
		g := p.KSink * p.SinkThickness * centerSide / dist
		t.edges = append(t.edges, edge{a: skc, b: idx, g: g})
		t.cap[idx] = p.CSink * slabArea * p.SinkThickness * p.SinkMassFactor
		t.gAmbient[idx] = gConvTotal * slabArea / totalArea
	}
}

// indexEdges flattens the edge list into the CSR adjacency used by the
// transient kernel, and validates conductance positivity. Neighbor
// order within a row matches edge-list order, keeping the floating
// point summation order of the kernel stable across builds.
func (t *Template) indexEdges() {
	t.gTotal = make([]float64, t.n)
	counts := make([]int32, t.n)
	for _, e := range t.edges {
		if e.g <= 0 || math.IsNaN(e.g) || math.IsInf(e.g, 0) {
			panic(fmt.Sprintf("thermal: bad conductance %g between %s and %s",
				e.g, t.names[e.a], t.names[e.b]))
		}
		counts[e.a]++
		counts[e.b]++
		t.gTotal[e.a] += e.g
		t.gTotal[e.b] += e.g
	}
	t.rowPtr = make([]int32, t.n+1)
	for i := 0; i < t.n; i++ {
		t.rowPtr[i+1] = t.rowPtr[i] + counts[i]
	}
	nnz := t.rowPtr[t.n]
	t.colIdx = make([]int32, nnz)
	t.colG = make([]float64, nnz)
	next := make([]int32, t.n)
	copy(next, t.rowPtr[:t.n])
	put := func(row, col int, g float64) {
		k := next[row]
		t.colIdx[k] = int32(col)
		t.colG[k] = g
		next[row] = k + 1
	}
	for _, e := range t.edges {
		put(e.a, e.b, e.g)
		put(e.b, e.a, e.g)
	}
	t.nbrIdx = make([][]int32, t.n)
	t.nbrG = make([][]float64, t.n)
	for i := 0; i < t.n; i++ {
		t.nbrIdx[i] = t.colIdx[t.rowPtr[i]:t.rowPtr[i+1]]
		t.nbrG[i] = t.colG[t.rowPtr[i]:t.rowPtr[i+1]]
	}
	for i := range t.gAmbient {
		t.gTotal[i] += t.gAmbient[i]
	}
}

// NumBlocks returns the number of die blocks (power inputs).
func (t *Template) NumBlocks() int { return t.nBlocks }

// NumNodes returns the total node count including package nodes.
func (t *Template) NumNodes() int { return t.n }

// NodeName returns the debug name of node i.
func (t *Template) NodeName(i int) string { return t.names[i] }

// Floorplan returns the floorplan the template was built from.
func (t *Template) Floorplan() *floorplan.Floorplan { return t.fp }

// Params returns the package parameters.
func (t *Template) Params() Params { return t.params }

// SetPower assigns the per-die-block power vector. The slice must have
// length NumBlocks. Values persist until changed.
func (m *Model) SetPower(watts units.PowerVec) {
	if len(watts) != m.nBlocks {
		panic(fmt.Sprintf("thermal: power vector length %d, want %d", len(watts), m.nBlocks))
	}
	copy(m.power[:m.nBlocks], watts)
}

// Power returns the current power vector (shared storage; do not mutate).
func (m *Model) Power() units.PowerVec { return units.PowerVec(m.power[:m.nBlocks]) }

// Temp returns the temperature of die block i.
func (m *Model) Temp(i int) units.Celsius { return units.Celsius(m.temps[i]) }

// BlockTemps copies the die-block temperatures into dst (allocating if
// nil) and returns it.
func (m *Model) BlockTemps(dst units.TempVec) units.TempVec {
	if dst == nil {
		dst = units.MakeTempVec(m.nBlocks)
	}
	copy(dst, m.temps[:m.nBlocks])
	return dst
}

// NodeTemps returns a copy of all node temperatures (die + package).
func (m *Model) NodeTemps() units.TempVec {
	out := units.MakeTempVec(m.n)
	copy(out, m.temps)
	return out
}

// SetNodeTemps overwrites the full transient state (die + package) —
// the fast path for installing a cached warmup state.
func (m *Model) SetNodeTemps(t units.TempVec) {
	if len(t) != m.n {
		panic(fmt.Sprintf("thermal: node temps length %d, want %d", len(t), m.n))
	}
	copy(m.temps, t)
}

// MaxBlockTemp returns the hottest die-block temperature and its index.
func (m *Model) MaxBlockTemp() (units.Celsius, int) {
	max, idx := math.Inf(-1), -1
	for i := 0; i < m.nBlocks; i++ {
		if m.temps[i] > max {
			max, idx = m.temps[i], i
		}
	}
	return units.Celsius(max), idx
}

// SetUniform resets every node to temperature t.
func (m *Model) SetUniform(t units.Celsius) {
	for i := range m.temps {
		m.temps[i] = float64(t)
	}
}

// ConductanceMatrix assembles the dense symmetric conductance matrix G
// where G[i][i] = Σ_j g_ij + gAmbient_i and G[i][j] = −g_ij. It is the
// left-hand side of the steady-state system G·T = P + gAmb·T_amb.
func (t *Template) ConductanceMatrix() *linalg.Matrix {
	g := linalg.NewMatrix(t.n, t.n)
	for _, e := range t.edges {
		g.Add(e.a, e.a, e.g)
		g.Add(e.b, e.b, e.g)
		g.Add(e.a, e.b, -e.g)
		g.Add(e.b, e.a, -e.g)
	}
	for i, ga := range t.gAmbient {
		g.Add(i, i, ga)
	}
	return g
}

// SteadyState solves for the equilibrium temperatures under the given
// die-block power vector without disturbing any transient state. The
// returned slice covers all nodes; die blocks come first. Below the
// sparse crossover it solves densely by LU; above it, by
// Jacobi-preconditioned CG on the CSR conductance matrix — G is a
// graph Laplacian plus a positive convection diagonal, so it is
// symmetric positive definite and CG converges without ever forming
// the O(n²) dense matrix.
func (t *Template) SteadyState(watts units.PowerVec) (units.TempVec, error) {
	if len(watts) != t.nBlocks {
		return nil, fmt.Errorf("thermal: power vector length %d, want %d", len(watts), t.nBlocks)
	}
	rhs := make([]float64, t.n)
	for i, w := range watts {
		rhs[i] = w
	}
	for i, ga := range t.gAmbient {
		rhs[i] += ga * float64(t.params.Ambient)
	}
	if t.n > sparseCrossoverNodes {
		sol, err := sparse.SolveCG(t.gsp, rhs, 1e-13, 0)
		return units.TempVec(sol), err
	}
	g := t.ConductanceMatrix()
	sol, err := linalg.Solve(g, rhs)
	return units.TempVec(sol), err
}

// FitParams returns DefaultParams scaled so the package physically
// fits the floorplan: the spreader plate must cover the die with a
// margin, the sink tracks the spreader at the default 2:1 ratio, and
// the convection resistance shrinks with sink area (a bigger sink
// carries proportionally more fin surface under the same airflow).
// For floorplans that already fit the paper's 30 mm spreader — the
// CMP4 among them — it returns DefaultParams unchanged, so existing
// results are untouched; generated many-core grids above ~14x14 mm get
// a proportionally larger package.
func FitParams(fp *floorplan.Floorplan) Params {
	p := DefaultParams()
	side := math.Max(fp.ChipW, fp.ChipH)
	const margin = 10e-3 // spreader overhang around the die, total
	if side+margin > p.SpreaderSide {
		defaultSinkArea := p.SinkSide * p.SinkSide
		p.SpreaderSide = side + margin
		p.SinkSide = 2 * p.SpreaderSide
		p.ConvectionResistance *= defaultSinkArea / (p.SinkSide * p.SinkSide)
	}
	return p
}

// InitSteadyState sets the transient state to the equilibrium for the
// given power vector — the standard way to start a simulation from a
// thermally warmed package rather than a cold chip.
func (m *Model) InitSteadyState(watts units.PowerVec) error {
	t, err := m.SteadyState(watts)
	if err != nil {
		return err
	}
	copy(m.temps, t)
	return nil
}
