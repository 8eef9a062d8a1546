// Package units defines the distinct physical-quantity types threaded
// through the simulator's public APIs. The paper's pipeline chains
// quantities in different dimensions — die-block power (W) → RC thermal
// state (°C) → PI/DVFS frequency scale (dimensionless in (0,1]) →
// throughput (BIPS) — and with bare float64 everywhere a watts-for-temps
// slice swap compiles silently. Each type below is a defined type over
// float64 (or []float64 for the vector views), so conversions are
// zero-cost no-ops at runtime while cross-dimension assignments become
// compile errors.
//
// The slice views TempVec and PowerVec deliberately keep float64
// elements: indexing tv[i] yields a plain float64, so inner loops are
// byte-for-byte the code they were before. The typed boundary is the
// slice header, not the element. Raw() is the escape hatch for handing
// the backing storage to the unit-agnostic linalg kernels. One hole is
// a language rule: []float64 is an unnamed type, so a raw slice assigns
// to TempVec or PowerVec (and back) without a conversion; the types
// keep only the typed APIs apart.
package units

// Seconds is a duration or instant on the simulation clock.
type Seconds float64

// Celsius is an absolute temperature in degrees Celsius. Temperature
// differences (K) share the type: the model never leaves the °C gauge.
type Celsius float64

// Watts is a power flow.
type Watts float64

// Joules is a stored or dissipated energy.
type Joules float64

// ScaleFactor is the dimensionless DVFS frequency scale in (0, 1]
// (1 = full speed, paper's s_i), also used for duty-cycle ratios.
type ScaleFactor float64

// BIPS is throughput in billions of instructions per second.
type BIPS float64

// TempVec is a vector of block or node temperatures in °C. It is a
// defined type over []float64: elements are plain float64 so hot loops
// index it without conversions, but the slice itself cannot be confused
// with a PowerVec without an explicit conversion.
type TempVec []float64

// MakeTempVec allocates an n-element temperature vector.
func MakeTempVec(n int) TempVec { return make(TempVec, n) }

// Raw exposes the backing storage for unit-agnostic kernels (linalg
// GEMV/GEMM, escape-free solver internals).
func (v TempVec) Raw() []float64 { return v }

// Len returns the number of elements.
func (v TempVec) Len() int { return len(v) }

// At returns element i as a typed temperature.
func (v TempVec) At(i int) Celsius { return Celsius(v[i]) }

// Set stores a typed temperature into element i.
func (v TempVec) Set(i int, t Celsius) { v[i] = float64(t) }

// Max returns the hottest element and its index, or (0, -1) for an
// empty vector.
func (v TempVec) Max() (Celsius, int) {
	if len(v) == 0 {
		return 0, -1
	}
	hi := 0
	for i := 1; i < len(v); i++ {
		if v[i] > v[hi] {
			hi = i
		}
	}
	return Celsius(v[hi]), hi
}

// PowerVec is a vector of per-block power inputs in watts, mirroring
// TempVec's representation (float64 elements, typed slice header).
type PowerVec []float64

// MakePowerVec allocates an n-element power vector.
func MakePowerVec(n int) PowerVec { return make(PowerVec, n) }

// Raw exposes the backing storage for unit-agnostic kernels, as
// TempVec.Raw does.
func (v PowerVec) Raw() []float64 { return v }

// Len returns the number of elements.
func (v PowerVec) Len() int { return len(v) }

// At returns element i as a typed power.
func (v PowerVec) At(i int) Watts { return Watts(v[i]) }

// Set stores a typed power into element i.
func (v PowerVec) Set(i int, w Watts) { v[i] = float64(w) }

// Sum returns the total power across the vector.
func (v PowerVec) Sum() Watts {
	var s float64
	for _, w := range v {
		s += w
	}
	return Watts(s)
}
