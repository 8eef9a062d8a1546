package sparse

import (
	"fmt"
	"math"
)

// Krylov action of the matrix exponential. The thermal model's exact
// ZOH update is
//
//	x(t+h) = e^{A·h}·x(t) + (integral of e^{A·s} ds)·c
//
// which the dense path materializes as the packed Φ/Ψ pair — an
// O((2n)³) build and an O(n²) step. Above the crossover size we never
// form e^{A·h}: following the standard augmented-matrix trick, the
// affine ODE x' = A·x + c is embedded as the linear ODE z' = M·z on
// z = [x; 1] with
//
//	M = [[A·τ, τ·c], [0, 0]]
//
// so one exact substep is z ← e^M·z, computed by an m-step Arnoldi
// projection: e^M·z ≈ β·V_m·e^{H_m}·e₁ with β = ||z||₂. Cost per
// substep is m sparse mat-vecs plus O(m·n) orthogonalization plus one
// m×m exponential — linear in NNZ, not N².
//
// Restart policy: there are no adaptive restarts. The Krylov dimension
// m and the substep count nsub are fixed once at construction by
// probing a representative state with the standard a-posteriori
// estimate β·h_{m+1,m}·|e^{H_m}|[m-1][0], and every subsequent step
// runs the identical (m, nsub) schedule. A fixed schedule costs a
// little accuracy headroom but buys the two properties the simulator
// is built around: steps are bit-reproducible (the arithmetic sequence
// depends only on the inputs, never on convergence history) and
// batched lanes stay in lockstep (all lanes share one schedule, so the
// SpMM fan-out never diverges).
type Propagator struct {
	a    *CSR // the generator scaled by tau, so one Arnoldi pass spans one substep
	n    int
	tau  float64
	m    int
	nsub int
}

// mCap bounds the Krylov dimension; if the probe cannot reach the
// tolerance at mCap the builder doubles nsub instead (a shorter
// substep shrinks ||M·τ|| and with it the required m).
const mCap = 48

// breakdownTiny is the happy-breakdown threshold on the next-basis
// norm h_{j+1,j}: below it the Krylov space is (numerically) invariant
// and the remaining basis vectors are set to zero rather than divided
// into noise. Zero columns propagate zeros through the SpMM and the
// small exponential, so sequential and batched runs agree bitwise even
// through a breakdown.
const breakdownTiny = 1e-290

// NewPropagator builds a fixed-schedule propagator for the generator a
// over one step of width stepSize. probeX (length n) and probeC
// (length n, the unscaled constant rate b in x' = A·x + b) supply the
// representative state used to calibrate (m, nsub) against tol; the
// calibration is deterministic, so equal inputs yield an equal
// schedule.
func NewPropagator(a *CSR, stepSize, tol float64, probeX, probeC []float64) (*Propagator, error) {
	n := a.rows
	if a.cols != n {
		return nil, fmt.Errorf("sparse: NewPropagator: matrix is %dx%d, not square", a.rows, a.cols)
	}
	if len(probeX) != n || len(probeC) != n {
		return nil, fmt.Errorf("sparse: NewPropagator: probe lengths %d, %d for n=%d", len(probeX), len(probeC), n)
	}
	if stepSize <= 0 {
		return nil, fmt.Errorf("sparse: NewPropagator: non-positive step %g", stepSize)
	}
	if tol <= 0 {
		tol = 1e-12
	}
	// Initial substep count from the generator's magnitude: keep
	// ||A·τ||₁ near unity so the Taylor series inside the small
	// exponential and the Arnoldi projection both converge fast.
	norm := a.Norm1() * stepSize
	nsub := 1 + int(norm/2.0)
	for attempt := 0; attempt < 6; attempt++ {
		tau := stepSize / float64(nsub)
		p := &Propagator{a: a.Scaled(tau), n: n, tau: tau, nsub: nsub}
		if m, ok := p.calibrate(tol, probeX, probeC); ok {
			p.m = m
			return p, nil
		}
		nsub *= 2
	}
	return nil, fmt.Errorf("sparse: NewPropagator: no Krylov dimension <= %d reaches tol %g even with shortened substeps", mCap, tol)
}

// calibrate runs one Arnoldi pass to mCap on the probe state and
// returns the smallest dimension whose a-posteriori error estimate
// meets tol (relative to β), plus one dimension of margin.
func (p *Propagator) calibrate(tol float64, probeX, probeC []float64) (int, bool) {
	ws := newWorkspace(mCap, p.n, 1)
	z := make([]float64, p.n+1)
	copy(z, probeX)
	z[p.n] = 1
	c := make([]float64, p.n)
	for i := range c {
		c[i] = probeC[i] * p.tau // constant rate scaled to one substep
	}
	beta := p.arnoldi(ws, z, c, 1, mCap)
	hm := mCap + 1
	for m := 2; m <= mCap; m++ {
		h := ws.H[m*hm+(m-1)] // h_{m+1,m} in the (mCap+1)-stride panel
		// e^{H_m} for the candidate dimension.
		for i := 0; i < m; i++ {
			for j := 0; j < m; j++ {
				ws.t1[i*m+j] = ws.H[i*hm+j]
			}
		}
		expmSmall(ws, m)
		est := beta * math.Abs(h) * math.Abs(ws.F[(m-1)*m])
		if est <= tol*beta {
			m++ // one dimension of margin over the probe
			if m > mCap {
				m = mCap
			}
			return m, true
		}
	}
	return 0, false
}

// Tau returns the substep width the fixed schedule applies.
func (p *Propagator) Tau() float64 { return p.tau }

// Substeps returns the number of equal substeps per step.
func (p *Propagator) Substeps() int { return p.nsub }

// Dim returns the fixed Krylov dimension m.
func (p *Propagator) Dim() int { return p.m }

// N returns the state dimension (excluding the augmented entry).
func (p *Propagator) N() int { return p.n }

// Workspace holds every buffer AdvanceBatch touches, sized for a fixed
// (propagator, lane count) pair, so the per-tick path allocates
// nothing.
type Workspace struct {
	m, n, k int
	V       []float64 // (m+1) basis panels, each k lanes of length n+1
	H       []float64 // k Hessenberg panels, (m+1) x (m+1) row-major
	beta    []float64 // per-lane ||z||₂
	F       []float64 // m x m small-exponential result (per-lane scratch)
	t1, t2  []float64 // m x m small-exponential work buffers
}

// NewWorkspace allocates a workspace for stepping k lanes through p.
func NewWorkspace(p *Propagator, k int) *Workspace {
	if k <= 0 {
		panic(fmt.Sprintf("sparse: NewWorkspace: k=%d", k))
	}
	return newWorkspace(p.m, p.n, k)
}

func newWorkspace(m, n, k int) *Workspace {
	hm := m + 1
	return &Workspace{
		m: m, n: n, k: k,
		V:    make([]float64, (m+1)*k*(n+1)),
		H:    make([]float64, k*hm*hm),
		beta: make([]float64, k),
		F:    make([]float64, m*m),
		t1:   make([]float64, m*m),
		t2:   make([]float64, m*m),
	}
}

// AdvanceBatch steps k lanes in lockstep. Lane l's augmented state
// z[l*(n+1):(l+1)*(n+1)] (with z[l*(n+1)+n] == 1) is replaced by its
// state one full step later under x' = A·x + c, where its constant
// term c[l*n:(l+1)*n] is scaled to one substep τ. All lanes share the
// generator, so the m sparse mat-vecs per substep run as one batched
// SpMM; every per-lane arithmetic sequence (accumulation order in the
// SpMM, the MGS orthogonalization, the basis combination) is identical
// to the k = 1 path, so batched stepping is bit-identical to
// sequential stepping.
//
//mtlint:zeroalloc
func (p *Propagator) AdvanceBatch(ws *Workspace, z, c []float64, k int) {
	n1 := p.n + 1
	if ws.m != p.m || ws.n != p.n || k <= 0 || k > ws.k ||
		len(z) < k*n1 || len(c) < k*p.n {
		badAdvanceArgs(ws.m, ws.n, ws.k, p.m, p.n, k, len(z), len(c))
	}
	for s := 0; s < p.nsub; s++ {
		p.arnoldi(ws, z, c, k, p.m)
		p.combine(ws, z, k)
	}
}

// arnoldi builds the m-step Krylov basis of the augmented operator for
// lanes [0, k), leaving the basis in ws.V, the Hessenberg panels in
// ws.H, and the lane norms in ws.beta. It returns lane 0's β for the
// calibration path. Called with the workspace's own m-capacity from
// calibrate, and with the fixed p.m from AdvanceBatch.
//
//mtlint:zeroalloc
func (p *Propagator) arnoldi(ws *Workspace, z, c []float64, k, m int) float64 {
	n1 := p.n + 1
	hm := ws.m + 1
	for i := range ws.H[:k*hm*hm] {
		ws.H[i] = 0
	}
	for l := 0; l < k; l++ {
		zl := z[l*n1 : l*n1+n1]
		b := nrm2(zl)
		ws.beta[l] = b
		inv := 1 / b // β >= 1 always: the augmented entry is pinned to 1
		v0 := ws.V[l*n1 : l*n1+n1]
		for i, zv := range zl {
			v0[i] = zv * inv
		}
	}
	for j := 0; j < m; j++ {
		vj := ws.V[j*ws.k*n1:]
		w := ws.V[(j+1)*ws.k*n1:]
		// Top block of the augmented operator: w = (A·τ)·v across all
		// lanes in one SpMM. The augmented column then adds v[n]·τ·c
		// per lane, and the augmented row is zero.
		p.a.MulBatchInto(w, nil, k, vj, n1, n1)
		for l := 0; l < k; l++ {
			wl := w[l*n1 : l*n1+n1]
			zn := vj[l*n1+p.n]
			cl := c[l*p.n : l*p.n+p.n]
			for i, cv := range cl {
				wl[i] += zn * cv
			}
			wl[p.n] = 0
		}
		// Modified Gram-Schmidt per lane, identical order at any k.
		for l := 0; l < k; l++ {
			wl := w[l*n1 : l*n1+n1]
			Hl := ws.H[l*hm*hm:]
			for i := 0; i <= j; i++ {
				vi := ws.V[i*ws.k*n1+l*n1:]
				vi = vi[:n1]
				hij := dot(vi, wl)
				for t, vv := range vi {
					wl[t] -= hij * vv
				}
				Hl[i*hm+j] = hij
			}
			hn := nrm2(wl)
			if hn > breakdownTiny {
				Hl[(j+1)*hm+j] = hn
				inv := 1 / hn
				for t := range wl {
					wl[t] *= inv
				}
			} else {
				// Happy breakdown: the space is invariant; keep the
				// zero vector so later columns stay exactly zero.
				for t := range wl {
					wl[t] = 0
				}
			}
		}
	}
	return ws.beta[0]
}

// combine forms z ← β·V·(e^{H} e₁) per lane and re-pins the augmented
// entry to exactly 1 (its mathematical value under the zero bottom row
// of M; re-pinning stops roundoff from drifting the affine embedding).
//
//mtlint:zeroalloc
func (p *Propagator) combine(ws *Workspace, z []float64, k int) {
	n1 := p.n + 1
	hm := ws.m + 1
	m := p.m
	for l := 0; l < k; l++ {
		for i := 0; i < m; i++ {
			Hrow := ws.H[l*hm*hm+i*hm:]
			copy(ws.t1[i*m:i*m+m], Hrow[:m])
		}
		expmSmall(ws, m)
		zl := z[l*n1 : l*n1+n1]
		for i := range zl {
			zl[i] = 0
		}
		for j := 0; j < m; j++ {
			fj := ws.F[j*m] * ws.beta[l]
			vj := ws.V[j*ws.k*n1+l*n1:]
			vj = vj[:n1]
			for i, vv := range vj {
				zl[i] += fj * vv
			}
		}
		zl[p.n] = 1
	}
}

//go:noinline
func badAdvanceArgs(wsM, wsN, wsK, pm, pn, k, lz, lc int) {
	panic(fmt.Sprintf("sparse: AdvanceBatch: workspace (m=%d n=%d k=%d) vs propagator (m=%d n=%d) k=%d len(z)=%d len(c)=%d",
		wsM, wsN, wsK, pm, pn, k, lz, lc))
}

// expmSmall computes e^{T} of the m x m matrix in ws.t1 into ws.F by
// scaling-and-squaring over a truncated Taylor series, entirely on the
// workspace buffers. The iteration counts depend only on the input
// values, so the routine is deterministic; m is Krylov-sized (<= 48),
// so the O(m³) multiplies are noise next to the SpMM work.
//
//mtlint:zeroalloc
func expmSmall(ws *Workspace, m int) {
	a := ws.t1
	// Scale T by 2^-s until its 1-norm is at most 1/2.
	var nrm float64
	for j := 0; j < m; j++ {
		var colSum float64
		for i := 0; i < m; i++ {
			colSum += math.Abs(a[i*m+j])
		}
		if colSum > nrm {
			nrm = colSum
		}
	}
	s := 0
	for sc := nrm; sc > 0.5; sc /= 2 {
		s++
	}
	if s > 0 {
		scale := math.Ldexp(1, -s)
		for i := range a[:m*m] {
			a[i] *= scale
		}
	}
	// F = I + T + T²/2! + ... with the running term in t2 and a
	// fixed-size stack row as the matmul staging buffer (m <= mCap).
	f := ws.F
	term := ws.t2
	for i := range f[:m*m] {
		f[i] = a[i]
		term[i] = a[i]
	}
	for i := 0; i < m; i++ {
		f[i*m+i] += 1
	}
	var row [mCap]float64
	for kk := 2; kk <= 32; kk++ {
		inv := 1 / float64(kk)
		var tmax float64
		for i := 0; i < m; i++ {
			trow := term[i*m : i*m+m]
			for j := 0; j < m; j++ {
				var acc float64
				for t := 0; t < m; t++ {
					acc += trow[t] * a[t*m+j]
				}
				row[j] = acc * inv
			}
			for j := 0; j < m; j++ {
				v := row[j]
				trow[j] = v
				f[i*m+j] += v
				if math.Abs(v) > tmax {
					tmax = math.Abs(v)
				}
			}
		}
		// With ||T||₁ <= 1/2 the terms shrink geometrically; stop
		// once they are far below double precision. The cutoff
		// depends only on the input values, so equal inputs take
		// equal iteration counts.
		if tmax <= 1e-20 {
			break
		}
	}
	// Undo the scaling: F ← F^(2^s), staging each product in t2.
	for r := 0; r < s; r++ {
		for i := 0; i < m; i++ {
			frow := f[i*m : i*m+m]
			for j := 0; j < m; j++ {
				var acc float64
				for t := 0; t < m; t++ {
					acc += frow[t] * f[t*m+j]
				}
				row[j] = acc
			}
			copy(term[i*m:i*m+m], row[:m])
		}
		copy(f[:m*m], term[:m*m])
	}
}
