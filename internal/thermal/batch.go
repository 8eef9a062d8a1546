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
// (GEMV → GEMM). Adopted models keep working as plain Models — their
// SetPower/Temp/BlockTemps/MaxBlockTemp views alias lanes of the
// shared panels — so per-lane controllers, sensors, and metrics code
// runs unchanged; only the thermal advance is fused.
//
// Lane layout: lane l of the double-buffered state panels (and of the
// input-term panel) is the padded column [l·stride, (l+1)·stride);
// each adopted model's temps/xbuf/ybuf/uCache slice headers are
// rewired onto its lane, and Step swaps the panel roles plus every
// lane's headers in lockstep.
//
// Per lane the arithmetic is exactly Model.stepExact's — same input
// memoization, same kernel operation order — so a batched run is
// bit-identical to K sequential runs. A BatchModel must not be shared
// across goroutines.
type BatchModel struct {
	d      *Discretization
	lanes  []*Model
	stride int

	// Double-buffered K×stride state panels: x holds the live state
	// (each lane model's temps aliases its x lane), the tick writes y,
	// and the two swap.
	x, y []float64

	// u is the K×stride panel of per-lane memoized input terms
	// Ψ·P + ψ_amb; lane l aliases that model's uCache. Lanes recompute
	// their term only while their powerDirty flag is set.
	u []float64

	// pw is the K×n power panel; lane l aliases that model's power
	// vector, so SetPower writes land in panel position and the fused
	// all-lanes-dirty input recompute reads the panel directly with no
	// gather. biasAmb replicates ψ_amb across lanes, built once.
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
// shared panels. Current temperatures carry over; each lane's input
// term is marked dirty so the first Step rebuilds it. The models'
// own Step(dt) reverts to RK4 (their exact path is disarmed): while
// adopted, only BatchModel.Step may advance thermal state on the
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
	k := len(models)
	if d.Sparse() {
		n1 := t.n + 1
		b := &BatchModel{
			d: d, lanes: models, stride: n1,
			z:   make([]float64, k*n1),
			c:   make([]float64, k*t.n),
			kws: sparse.NewWorkspace(d.prop, k),
		}
		for l, m := range models {
			lz := b.z[l*n1 : (l+1)*n1 : (l+1)*n1]
			copy(lz[:m.n], m.temps)
			lz[m.n] = 1
			m.temps = lz[:m.n]
			m.powerDirty = true
			m.disc = nil
		}
		return b, nil
	}
	stride := d.phiPacked.Stride()
	b := &BatchModel{
		d: d, lanes: models, stride: stride,
		x:       linalg.NewAligned(k * stride),
		y:       linalg.NewAligned(k * stride),
		u:       linalg.NewAligned(k * stride),
		pw:      linalg.NewAligned(k * t.n),
		biasAmb: linalg.NewAligned(k * stride),
	}
	for l, m := range models {
		lx := b.x[l*stride : (l+1)*stride : (l+1)*stride]
		copy(lx[:m.n], m.temps)
		m.xbuf = lx
		m.ybuf = b.y[l*stride : (l+1)*stride : (l+1)*stride]
		m.uCache = b.u[l*stride : (l+1)*stride : (l+1)*stride]
		m.temps = lx[:m.n]
		lp := b.pw[l*t.n : (l+1)*t.n : (l+1)*t.n]
		copy(lp, m.power)
		m.power = lp
		m.powerDirty = true
		m.disc = nil
		copy(b.biasAmb[l*stride:(l+1)*stride], d.psiAmbPad)
	}
	return b, nil
}

// Lanes returns the batch width K.
func (b *BatchModel) Lanes() int { return len(b.lanes) }

// Dt returns the step size the batch advances per tick.
func (b *BatchModel) Dt() units.Seconds { return units.Seconds(b.d.dt) }

// SIMDAccelerated reports whether the batched tick runs the vectorized
// panel kernel on this machine.
func (b *BatchModel) SIMDAccelerated() bool { return b.d.SIMDAccelerated() }

// Step advances every lane by one exact tick: T ← Φ·T + (Ψ·P + ψ_amb),
// with T the n×K panel. Input terms are memoized per lane and
// recomputed only for lanes whose power changed since the last tick;
// when every lane is dirty — the simulator's steady pattern under
// leakage-temperature feedback — the recompute itself runs as one
// fused Ψ panel pass reading the power panel directly. Both panel
// passes keep their operand matrix L1-resident across the lane groups,
// which is why the update runs as two sweeps rather than one fused
// [Ψ|Φ] pass: the concatenated operand would exceed L1 and re-stream
// from L2 for every group. Zero allocations.
//
//mtlint:zeroalloc
func (b *BatchModel) Step() {
	d, k := b.d, len(b.lanes)
	if d.prop != nil {
		b.stepSparse()
		return
	}
	dirty := 0
	for _, m := range b.lanes {
		if m.powerDirty {
			dirty++
		}
	}
	if dirty == k && k > 1 {
		for _, m := range b.lanes {
			m.powerDirty = false
		}
		d.psiPacked.MulBatchInto(b.u, b.biasAmb, k, b.pw, b.lanes[0].n)
	} else if dirty > 0 {
		for _, m := range b.lanes {
			if m.powerDirty {
				d.psiPacked.MulAddInto(m.uCache, d.psiAmbPad, m.power[:m.nBlocks])
				m.powerDirty = false
			}
		}
	}
	d.phiPacked.MulBatchInto(b.y, b.u, k, b.x, b.stride)
	b.x, b.y = b.y, b.x
	for _, m := range b.lanes {
		m.xbuf, m.ybuf = m.ybuf, m.xbuf
		m.temps = m.xbuf[:m.n]
	}
}

// stepSparse advances every lane one exact tick through the shared
// Krylov propagator: the m Arnoldi mat-vecs per substep run as one
// batched SpMM over the lane panel, and each lane's constant term is
// rebuilt only when its power changed — the same memoization contract
// as the dense input panel. The per-lane constant-term loop is
// Model.stepSparse's loop verbatim, and the propagator's per-lane
// arithmetic is independent of the batch width, so a batched run is
// bit-identical to K sequential runs. Zero allocations.
//
//mtlint:zeroalloc
func (b *BatchModel) stepSparse() {
	d, k := b.d, len(b.lanes)
	n := b.lanes[0].n
	tau := d.prop.Tau()
	for l, m := range b.lanes {
		if !m.powerDirty {
			continue
		}
		m.powerDirty = false
		cl := b.c[l*n : (l+1)*n]
		for i := 0; i < n; i++ {
			cl[i] = (m.power[i] + m.ambFlow[i]) * m.invCap[i] * tau
		}
	}
	d.prop.AdvanceBatch(b.kws, b.z, b.c, k)
}
