package thermal

import (
	"fmt"

	"multitherm/internal/linalg"
	"multitherm/internal/linalg/sparse"
	"multitherm/internal/units"
)

// BatchModel advances K models stamped from one Template through the
// shared exact-ZOH propagator in lockstep: the per-tick update becomes
// Φ·T + Ψ·U with T an n×K state panel instead of K separate
// matrix-vector products, so the propagator's memory traffic and the
// per-call dispatch overhead amortize across the whole batch
// (GEMV → GEMM). It is the model's only exact step: UseExact adopts a
// lone model into a one-lane batch. Adopted models keep working as
// plain Models — their SetPower/Temp/BlockTemps/MaxBlockTemp views
// alias lanes of the shared panels — so per-lane controllers, sensors,
// and metrics code runs unchanged; only the thermal advance is fused.
//
// Lane layout: lane l of the double-buffered state panels and of the
// input-term panel is the padded column [l·stride, (l+1)·stride), and
// lane l of the power panel is [l·n, (l+1)·n). Each adopted model's
// temps and power slice headers are rewired onto its lanes, and Step
// swaps the state panels and re-points every lane's temps in lockstep.
//
// Per lane the panel kernels run MulAddInto's operations in
// MulAddInto's order, and the Krylov propagator's per-lane arithmetic
// is independent of the lane count, so a lane's trajectory does not
// depend on how many lanes share its batch. A BatchModel must not be
// shared across goroutines.
type BatchModel struct {
	d      *Discretization
	lanes  []*Model
	stride int

	// Double-buffered K×stride state panels: x holds the live state
	// (each lane model's temps aliases its x lane), the tick writes y,
	// and the two swap.
	x, y []float64

	// u is the K×stride panel of input terms Ψ·P + ψ_amb, rebuilt for
	// every lane on every tick from pw, the K×n power panel; lane l of
	// pw aliases that model's power vector, so SetPower writes land in
	// panel position with no gather. biasAmb replicates ψ_amb across
	// lanes, built once.
	u       []float64
	pw      []float64
	biasAmb []float64

	// Sparse mode (d.Sparse()): z is the K×(n+1) augmented state panel
	// (lane l's temps alias z[l*(n+1):l*(n+1)+n]), c the K×n panel of
	// substep-scaled constant terms, and kws the shared K-lane Arnoldi
	// workspace. The dense panels above stay nil; the Krylov advance is
	// in place, so there is no buffer swap.
	z, c []float64
	kws  *sparse.Workspace
}

// NewBatch adopts the given models — all stamped from one Template —
// into a lockstep batch at step dt, rewiring their mutable state onto
// shared panels. Current temperatures and power carry over. The
// models' own Step(dt) reverts to RK4 (their exact path is disarmed):
// while adopted, only BatchModel.Step may advance thermal state on the
// exact grid, since it owns the panel double-buffering.
func NewBatch(models []*Model, dt units.Seconds) (*BatchModel, error) {
	if len(models) == 0 {
		return nil, fmt.Errorf("thermal: empty batch")
	}
	t := models[0].Template
	for i, m := range models {
		if m.Template != t {
			return nil, fmt.Errorf("thermal: batch lane %d stamped from a different template", i)
		}
	}
	d, err := t.Discretization(dt)
	if err != nil {
		return nil, err
	}
	return newBatch(models, d), nil
}

// newBatch builds the panels for discretization d, which must come
// from the models' shared template, and moves each model's state onto
// its lane.
func newBatch(models []*Model, d *Discretization) *BatchModel {
	k, n := len(models), d.n
	if d.Sparse() {
		n1 := n + 1
		b := &BatchModel{
			d: d, lanes: models, stride: n1,
			z:   make([]float64, k*n1),
			c:   make([]float64, k*n),
			kws: sparse.NewWorkspace(d.prop, k),
		}
		for l, m := range models {
			lz := b.z[l*n1 : (l+1)*n1 : (l+1)*n1]
			copy(lz[:n], m.temps)
			lz[n] = 1
			m.temps = lz[:n:n]
			m.exact = nil
		}
		return b
	}
	stride := d.phiPacked.Stride()
	b := &BatchModel{
		d: d, lanes: models, stride: stride,
		x:       linalg.NewAligned(k * stride),
		y:       linalg.NewAligned(k * stride),
		u:       linalg.NewAligned(k * stride),
		pw:      linalg.NewAligned(k * n),
		biasAmb: linalg.NewAligned(k * stride),
	}
	for l, m := range models {
		lx := b.x[l*stride : l*stride+n : l*stride+n]
		copy(lx, m.temps)
		m.temps = lx
		lp := b.pw[l*n : (l+1)*n : (l+1)*n]
		copy(lp, m.power)
		m.power = lp
		m.exact = nil
		copy(b.biasAmb[l*stride:(l+1)*stride], d.psiAmbPad)
	}
	return b
}

// SIMDAccelerated reports whether the batched tick runs the vectorized
// panel kernel on this machine.
func (b *BatchModel) SIMDAccelerated() bool { return b.d.SIMDAccelerated() }

// Step advances every lane by one exact tick: T ← Φ·T + (Ψ·P + ψ_amb),
// with T the n×K panel. Every lane's input term is rebuilt each tick —
// under leakage-temperature feedback the simulator changes every
// lane's power on every tick — as one Ψ panel pass reading the power
// panel directly. Both panel passes keep their operand matrix
// L1-resident across the lane groups, which is why the update runs as
// two sweeps rather than one fused [Ψ|Φ] pass: the concatenated
// operand would exceed L1 and re-stream from L2 for every group. Zero
// allocations.
func (b *BatchModel) Step() {
	d, k := b.d, len(b.lanes)
	if d.prop != nil {
		b.stepSparse()
		return
	}
	n, s := d.n, b.stride
	d.psiPacked.MulBatchInto(b.u, b.biasAmb, k, b.pw, n)
	d.phiPacked.MulBatchInto(b.y, b.u, k, b.x, s)
	b.x, b.y = b.y, b.x
	for l, m := range b.lanes {
		m.temps = b.x[l*s : l*s+n : l*s+n]
	}
}

// stepSparse advances every lane one exact tick through the shared
// Krylov propagator: each lane's substep-scaled constant term
// c = τ·B·(P + gAmb·T_amb) is rebuilt from its power, and the
// propagator steps the lanes one at a time on its shared (m, nsub)
// schedule. Zero allocations.
func (b *BatchModel) stepSparse() {
	d, n := b.d, b.d.n
	tau := d.prop.Tau()
	for l, m := range b.lanes {
		cl := b.c[l*n : (l+1)*n]
		for i := 0; i < n; i++ {
			cl[i] = (m.power[i] + m.ambFlow[i]) * m.invCap[i] * tau
		}
	}
	d.prop.AdvanceBatch(b.kws, b.z, b.c, len(b.lanes))
}
