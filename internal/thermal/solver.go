package thermal

import (
	"fmt"
	"math"

	"multitherm/internal/units"
)

// derivs computes dT/dt into out given node temperatures t:
//
//	C_i·dT_i/dt = P_i + Σ_j g_ij·(T_j − T_i) + gAmb_i·(T_amb − T_i)
//
// It uses the same CSR walk and summation order as the fused RK4
// stages below, so it can serve as their reference in tests.
func (m *Model) derivs(t []float64, out []float64) {
	for i := 0; i < m.n; i++ {
		flow := m.power[i] + m.ambFlow[i] - m.gTotal[i]*t[i]
		idx := m.nbrIdx[i]
		gs := m.nbrG[i]
		for k, j := range idx {
			flow += gs[k] * t[j]
		}
		out[i] = flow * m.invCap[i]
	}
}

// computeMaxStableStep derives a conservative upper bound on the
// explicit integration step: the classical RK4 stability limit is
// ~2.78/λ for the fastest eigenvalue λ; we bound λ by max_i (ΣG_i/C_i)
// and keep a 2× margin. The bound depends only on the network, so the
// template computes it once at build time.
func (t *Template) computeMaxStableStep() float64 {
	maxRate := 0.0
	for i := 0; i < t.n; i++ {
		if r := t.gTotal[i] / t.cap[i]; r > maxRate {
			maxRate = r
		}
	}
	if maxRate == 0 { //mtlint:allow floatcmp exact zero rate means an unconnected network
		return math.Inf(1)
	}
	return 1.39 / maxRate
}

// MaxStableStep returns the precomputed RK4 stability bound.
func (t *Template) MaxStableStep() units.Seconds { return units.Seconds(t.hMax) }

// Step advances the transient solution by dt seconds. If UseExact has
// armed the exact ZOH discretization for this dt, the step is one tick
// of the model's one-lane batch, T ← Φ·T + Ψ·u with no truncation
// error; any other dt falls back to classical RK4, internally
// substepping if dt exceeds the stability bound. Power inputs are held
// constant across the step (the simulator changes them only at
// trace-sample boundaries, every 28 µs).
//
//mtlint:zeroalloc
func (m *Model) Step(dt units.Seconds) {
	h := float64(dt)
	if h <= 0 {
		badStepSize(h)
	}
	if b := m.exact; b != nil && b.d.dt == h { //mtlint:allow floatcmp the exact path is armed for bit-exactly this dt (both sides the same raw seconds value)
		b.Step()
		return
	}
	steps := 1
	if h > m.hMax {
		steps = int(math.Ceil(h / m.hMax))
	}
	h /= float64(steps)
	for s := 0; s < steps; s++ {
		m.rk4(h)
	}
}

// badStepSize formats the Step argument panic off the hot path:
// fmt.Sprintf's interface conversion is a heap allocation that must not
// appear inside the zeroalloc-marked step body.
//
//go:noinline
func badStepSize(dt float64) {
	panic(fmt.Sprintf("thermal: non-positive step %g", dt))
}

// rk4 performs one classical RK4 step of size h with each derivative
// evaluation fused into its state update: every stage walks the
// adjacency once, accumulating the weighted k-sum and producing the
// next stage input in the same pass.
//
//mtlint:zeroalloc
func (m *Model) rk4(h float64) {
	t := m.temps
	acc, ta, tb := m.acc, m.tmpA, m.tmpB
	m.firstStage(t, ta, acc, 0.5*h) // k1
	m.stage(ta, tb, acc, 0.5*h, 2)  // k2
	m.stage(tb, ta, acc, h, 2)      // k3
	m.finalStage(ta, acc, h)        // k4 + state update
}

// firstStage computes k1 = f(src), seeds acc = k1, and writes
// dst = temps + hk·k1, saving the separate zeroing pass.
//
//mtlint:zeroalloc
func (m *Model) firstStage(src, dst, acc []float64, hk float64) {
	t := m.temps
	for i := 0; i < m.n; i++ {
		flow := m.power[i] + m.ambFlow[i] - m.gTotal[i]*src[i]
		idx := m.nbrIdx[i]
		gs := m.nbrG[i]
		for k, j := range idx {
			flow += gs[k] * src[j]
		}
		kv := flow * m.invCap[i]
		acc[i] = kv
		dst[i] = t[i] + hk*kv
	}
}

// stage computes k = f(src), accumulates accW·k into acc, and writes
// dst = temps + hk·k in one pass.
//
//mtlint:zeroalloc
func (m *Model) stage(src, dst, acc []float64, hk, accW float64) {
	t := m.temps
	for i := 0; i < m.n; i++ {
		flow := m.power[i] + m.ambFlow[i] - m.gTotal[i]*src[i]
		idx := m.nbrIdx[i]
		gs := m.nbrG[i]
		for k, j := range idx {
			flow += gs[k] * src[j]
		}
		kv := flow * m.invCap[i]
		acc[i] += accW * kv
		dst[i] = t[i] + hk*kv
	}
}

// finalStage computes k4 = f(src) and applies the combined update
// temps += h/6·(acc + k4) in the same pass.
//
//mtlint:zeroalloc
func (m *Model) finalStage(src, acc []float64, h float64) {
	t := m.temps
	w := h / 6
	for i := 0; i < m.n; i++ {
		flow := m.power[i] + m.ambFlow[i] - m.gTotal[i]*src[i]
		idx := m.nbrIdx[i]
		gs := m.nbrG[i]
		for k, j := range idx {
			flow += gs[k] * src[j]
		}
		kv := flow * m.invCap[i]
		t[i] += w * (acc[i] + kv)
	}
}

// HeatFlowToAmbient returns the instantaneous total heat flow from the
// model into the ambient. At steady state this equals the total input
// power (energy conservation).
func (m *Model) HeatFlowToAmbient() units.Watts {
	var w float64
	amb := float64(m.params.Ambient)
	for i, ga := range m.gAmbient {
		w += ga * (m.temps[i] - amb)
	}
	return units.Watts(w)
}

// StoredEnergy returns Σ C_i·(T_i − ambient): the thermal energy stored
// in the network relative to the ambient reference.
func (m *Model) StoredEnergy() units.Joules {
	var e float64
	amb := float64(m.params.Ambient)
	for i, c := range m.cap {
		e += c * (m.temps[i] - amb)
	}
	return units.Joules(e)
}

// BlockTimeConstant estimates block i's local thermal time constant
// C_i/ΣG_i — the scale on which its hotspot heats and cools. The paper
// relies on these being milliseconds to justify its 30 ms stop-go
// interval and 28 µs control sampling.
func (t *Template) BlockTimeConstant(i int) units.Seconds {
	if i < 0 || i >= t.nBlocks {
		panic(fmt.Sprintf("thermal: block index %d out of range", i))
	}
	return units.Seconds(t.cap[i] / t.gTotal[i])
}
