package thermal

import (
	"fmt"

	"multitherm/internal/linalg"
	"multitherm/internal/linalg/sparse"
	"multitherm/internal/units"
)

// sparseCrossoverNodes is the node count above which the exact ZOH
// path stops materializing dense Φ/Ψ and switches to the Krylov
// expm·v action on the CSR generator. 64 is the packed kernel's SIMD
// stride: at or below it the dense panels fit one packed tile and the
// fused GEMV is unbeatable; above it the O((2n)³) Expm build and the
// O(n²) per-tick panels lose to O(nnz·m) Arnoldi on these ~7
// nonzeros-per-row RC networks. The mode depends only on the template
// size — never on dt — so a (Template, dt) pair always lands in the
// same cache entry with the same representation.
const sparseCrossoverNodes = 64

// Discretization is the exact zero-order-hold discretization of the RC
// network at a fixed step dt. Writing the continuous model as
//
//	dT/dt = A·T + B·u,   A = −C⁻¹·G,  B = C⁻¹,  u = P + gAmb·T_amb
//
// the solution with u held constant over [t, t+dt] (exactly the
// simulator's contract: power changes only at tick boundaries) is
//
//	T(t+dt) = Φ·T(t) + Ψ·u,   Φ = e^{A·dt},  Ψ = ∫₀^dt e^{A·s}·B ds
//
// with no truncation error and no stability limit — the update is exact
// for any dt, where explicit RK4 must substep past hMax. Both matrices
// come out of one matrix exponential of the Van Loan augmented block
// matrix, avoiding the cancellation-prone A⁻¹(Φ−I)B form:
//
//	exp([[A·dt, B·dt], [0, 0]]) = [[Φ, Ψ], [0, I]]
//
// Ψ is then split into its die-block columns (the live power inputs)
// and its contraction against the constant ambient inflow, so the
// per-tick update touches only what actually changes. A Discretization
// is immutable and shared by every Model stamped from the template; the
// template memoizes one per dt (see Template.Discretization).
type Discretization struct {
	dt  float64
	n   int
	phi *linalg.Matrix // n×n state propagator Φ
	psi *linalg.Matrix // n×nBlocks input propagator: Ψ restricted to power columns

	// psiAmb = Ψ·(gAmb·T_amb): the constant ambient contribution per
	// tick, folded once at build time.
	psiAmb []float64

	// Packed column-major operands for the fused per-tick kernel. Both
	// share the same stride; psiAmbPad is psiAmb zero-padded to it.
	phiPacked *linalg.Packed
	psiPacked *linalg.Packed
	psiAmbPad []float64

	// Sparse mode (templates above sparseCrossoverNodes): prop is the
	// fixed-schedule Krylov propagator for e^{A·dt} acting on the
	// augmented state [T; 1], and every dense field above is nil — Φ/Ψ
	// are never materialized. The two modes expose one stepping
	// contract; BatchModel.Step dispatches on Sparse().
	prop *sparse.Propagator
}

// Sparse reports whether this discretization steps through the Krylov
// propagator instead of the dense packed Φ/Ψ panels.
func (d *Discretization) Sparse() bool { return d.prop != nil }

// Mode describes the representation for reports and logs.
func (d *Discretization) Mode() string {
	if d.prop != nil {
		return fmt.Sprintf("sparse-krylov(m=%d,nsub=%d)", d.prop.Dim(), d.prop.Substeps())
	}
	return "dense-packed"
}

// buildDiscretization computes Φ and Ψ via the augmented-matrix
// exponential. Cost is one 2n×2n Expm — milliseconds for the 55-node
// CMP4 network — paid once per (Template, dt).
func (t *Template) buildDiscretization(dt float64) (*Discretization, error) {
	if dt <= 0 {
		return nil, fmt.Errorf("thermal: non-positive discretization step %g", dt)
	}
	n := t.n
	g := t.ConductanceMatrix()
	aug := linalg.NewMatrix(2*n, 2*n)
	for i := 0; i < n; i++ {
		ic := t.invCap[i]
		for j := 0; j < n; j++ {
			aug.Set(i, j, -ic*g.At(i, j)*dt) // A·dt
		}
		aug.Set(i, n+i, ic*dt) // B·dt
	}
	e, err := linalg.Expm(aug)
	if err != nil {
		return nil, fmt.Errorf("thermal: discretizing at dt=%g: %w", dt, err)
	}
	d := &Discretization{dt: dt, n: n,
		phi:    linalg.NewMatrix(n, n),
		psi:    linalg.NewMatrix(n, t.nBlocks),
		psiAmb: make([]float64, n),
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			d.phi.Set(i, j, e.At(i, j))
		}
		for j := 0; j < t.nBlocks; j++ {
			d.psi.Set(i, j, e.At(i, n+j))
		}
		var amb float64
		for j := 0; j < n; j++ {
			amb += e.At(i, n+j) * t.ambFlow[j]
		}
		d.psiAmb[i] = amb
	}
	d.phiPacked = linalg.Pack(d.phi)
	d.psiPacked = linalg.Pack(d.psi)
	d.psiAmbPad = make([]float64, d.phiPacked.Stride())
	copy(d.psiAmbPad, d.psiAmb)
	return d, nil
}

// buildSparseDiscretization constructs the Krylov-propagator form of
// the same exact ZOH update: instead of materializing Φ/Ψ it
// calibrates a fixed (m, nsub) Arnoldi schedule for e^{M·dt} on the
// augmented affine system, where the constant term c = B·u is rebuilt
// per lane on every tick. The calibration probe is a deterministic
// warm-gradient state under a representative per-block power, so
// equal (Template, dt) pairs always freeze the identical schedule —
// the property that keeps sparse steps bit-reproducible and batch
// lanes in lockstep.
func (t *Template) buildSparseDiscretization(dt float64) (*Discretization, error) {
	if dt <= 0 {
		return nil, fmt.Errorf("thermal: non-positive discretization step %g", dt)
	}
	probeX := make([]float64, t.n)
	probeC := make([]float64, t.n)
	const probeWatts = 2.0 // representative per-block dissipation
	for i := 0; i < t.n; i++ {
		probeX[i] = float64(t.params.Ambient) + 10 + float64(i%7)
		var w float64
		if i < t.nBlocks {
			w = probeWatts
		}
		probeC[i] = (w + t.ambFlow[i]) * t.invCap[i]
	}
	prop, err := sparse.NewPropagator(t.asp, dt, 1e-12, probeX, probeC)
	if err != nil {
		return nil, fmt.Errorf("thermal: sparse discretization at dt=%g: %w", dt, err)
	}
	return &Discretization{dt: dt, n: t.n, prop: prop}, nil
}

// Discretization returns the memoized exact ZOH discretization of this
// template at step dt, building it on first use. The representation is
// picked automatically per template size — dense packed Φ/Ψ at or
// below sparseCrossoverNodes, the Krylov propagator above — and the
// cache key is (Template, dt): templates are themselves memoized per
// (floorplan, params), so a parallel sweep pays the build once per
// configuration, not once per run. Concurrent first callers may race
// to build; the construction is deterministic, so whichever instance
// wins the store is identical to the losers.
func (t *Template) Discretization(dt units.Seconds) (*Discretization, error) {
	key := float64(dt)
	return t.discCache.LoadOrStore(key, func() (*Discretization, error) {
		if t.n > sparseCrossoverNodes {
			return t.buildSparseDiscretization(key)
		}
		return t.buildDiscretization(key)
	})
}

// Dt returns the step size the discretization was built for.
func (d *Discretization) Dt() units.Seconds { return units.Seconds(d.dt) }

// SIMDAccelerated reports whether the per-tick update runs the
// vectorized packed kernel on this machine. Sparse discretizations
// step through the generic Krylov kernels, so they report false.
func (d *Discretization) SIMDAccelerated() bool {
	return d.prop == nil && d.phiPacked.SIMDAccelerated()
}

// Phi returns Φ[i][j], the exact dt-step response of node i to a unit
// initial temperature on node j. Exposed for validation tests; only
// the dense representation materializes Φ.
func (d *Discretization) Phi(i, j int) float64 { return d.phi.At(i, j) }

// PreferExact reports whether the exact discretized step is expected to
// beat substepped RK4 at step dt on this machine. Three regimes
// qualify: the template is above the sparse crossover (one Krylov
// substep costs about the same as one RK4 substep but is exact at any
// dt and steps every lane of a batch on one shared schedule),
// the dense Φ kernel is SIMD-accelerated (a single fused pass beats
// even one sparse RK4 substep), or dt is far enough past the stability
// bound that RK4 must substep repeatedly while the exact update stays a
// single application regardless of dt.
func (t *Template) PreferExact(dt units.Seconds) bool {
	if t.n > sparseCrossoverNodes {
		return true
	}
	if float64(dt) > 2*t.hMax {
		return true
	}
	return linalg.SIMDCapableRows(t.n)
}

// UseExact switches the model's Step(dt) onto the exact discretized
// update for exactly this dt by adopting the model into a one-lane
// lockstep batch (see BatchModel); Step at any other size still runs
// RK4 on the same state, so off-grid steps (warmup, odd remainders)
// fall back transparently. The discretization comes from the
// template's memoized cache and may be dense or sparse per the template
// size. Current temperatures carry over, and calling UseExact again
// re-targets the fast path to the new dt.
func (m *Model) UseExact(dt units.Seconds) error {
	d, err := m.Template.Discretization(dt)
	if err != nil {
		return err
	}
	m.exact = newBatch([]*Model{m}, d)
	return nil
}
