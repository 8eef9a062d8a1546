// Package control implements the formal feedback-control machinery the
// paper builds its DVFS thermal governor on (§4): continuous transfer
// functions, PI controller design, continuous→discrete conversion
// (the role of MATLAB's c2d), closed-loop pole/stability analysis, and
// the discrete PI runtime with the hardware non-idealities the paper
// discusses — output clipping, anti-windup, and a minimum-transition
// deadband.
//
//mtlint:deterministic
package control

import (
	"fmt"
	"math"
	"math/cmplx"

	"multitherm/internal/poly"
	"multitherm/internal/units"
)

// TF is a continuous-time transfer function Num(s)/Den(s).
type TF struct {
	Num poly.Poly
	Den poly.Poly
}

// NewTF builds a transfer function from numerator and denominator
// coefficients ordered lowest degree first.
func NewTF(num, den []float64) TF {
	return TF{Num: poly.New(num...), Den: poly.New(den...)}
}

// PI returns the PI controller transfer function of the paper §4.1:
//
//	G(s) = Kp + Ki/s = (Kp·s + Ki) / s
func PI(kp, ki float64) TF {
	return TF{Num: poly.New(ki, kp), Den: poly.New(0, 1)}
}

// FirstOrderPlant returns the canonical first-order thermal plant
//
//	H(s) = K / (τ·s + 1)
//
// which models a hotspot's temperature response to a power step with DC
// gain K (°C per unit actuator) and thermal time constant τ (seconds).
// The paper's stability argument treats each hotspot this way.
func FirstOrderPlant(gain float64, tau units.Seconds) TF {
	return TF{Num: poly.New(gain), Den: poly.New(1, float64(tau))}
}

// Series returns the cascade g·h.
func (g TF) Series(h TF) TF {
	return TF{Num: g.Num.Mul(h.Num), Den: g.Den.Mul(h.Den)}
}

// Feedback returns the unity-negative-feedback closed loop
//
//	g/(1+g) = Num / (Den + Num).
func (g TF) Feedback() TF {
	return TF{Num: g.Num, Den: g.Den.Add(g.Num)}
}

// Poles returns the roots of the denominator.
func (g TF) Poles() []complex128 { return g.Den.Roots() }

// IsStable reports whether every pole lies strictly in the open left
// half of the s-plane — the criterion the paper verifies with a root
// locus plot ("all the poles must lie to the left of the y-axis").
func (g TF) IsStable() bool {
	for _, p := range g.Poles() {
		if real(p) >= 0 {
			return false
		}
	}
	return true
}

// Eval evaluates the transfer function at complex frequency s.
func (g TF) Eval(s complex128) complex128 {
	return g.Num.EvalC(s) / g.Den.EvalC(s)
}

// DCGain returns the steady-state gain G(0). Returns ±Inf for a pole at
// the origin (e.g. a pure integrator).
func (g TF) DCGain() float64 {
	d := g.Den.Eval(0)
	if d == 0 {
		return math.Inf(sign(g.Num.Eval(0)))
	}
	return g.Num.Eval(0) / d
}

func sign(x float64) int {
	if x < 0 {
		return -1
	}
	return 1
}

// DominantTimeConstant returns −1/Re(p) for the stable pole closest to
// the imaginary axis — the time scale that dominates settling. Returns
// +Inf if any pole lies on or right of the axis.
func (g TF) DominantTimeConstant() units.Seconds {
	var slowest float64
	for _, p := range g.Poles() {
		if real(p) >= 0 {
			return units.Seconds(math.Inf(1))
		}
		if tc := -1 / real(p); tc > slowest {
			slowest = tc
		}
	}
	return units.Seconds(slowest)
}

// SettlingTime estimates the 2% settling time as 4× the dominant time
// constant, the standard first-order approximation.
func (g TF) SettlingTime() units.Seconds {
	return 4 * g.DominantTimeConstant()
}

// RootLocusPoint is one sample of the root-locus sweep: the closed-loop
// poles at a particular loop-gain multiplier.
type RootLocusPoint struct {
	Gain  float64
	Poles []complex128
}

// RootLocus sweeps the loop gain over the supplied multipliers and
// returns the closed-loop poles of (k·g)/(1+k·g) at each, mirroring the
// paper's MATLAB root-locus verification.
func (g TF) RootLocus(gains []float64) []RootLocusPoint {
	out := make([]RootLocusPoint, 0, len(gains))
	for _, k := range gains {
		scaled := TF{Num: g.Num.Scale(k), Den: g.Den}
		out = append(out, RootLocusPoint{Gain: k, Poles: scaled.Feedback().Poles()})
	}
	return out
}

// StabilityMargin returns the distance of the rightmost pole from the
// imaginary axis (positive = stable by that margin).
//
// The margin is in 1/s.
func (g TF) StabilityMargin() float64 {
	margin := math.Inf(1)
	for _, p := range g.Poles() {
		if m := -real(p); m < margin {
			margin = m
		}
	}
	return margin
}

func (g TF) String() string {
	return fmt.Sprintf("(%s) / (%s)", g.Num, g.Den)
}

// MaxPoleMagnitude returns the largest |pole|; for discrete systems a
// value < 1 means stable.
func maxMagnitude(ps []complex128) float64 {
	var m float64
	for _, p := range ps {
		if a := cmplx.Abs(p); a > m {
			m = a
		}
	}
	return m
}
