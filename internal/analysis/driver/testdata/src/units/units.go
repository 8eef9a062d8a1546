// Package units is a miniature typed-quantity package, one of the
// fixture module's three packages; unmarked imports it, so loading
// resolves an in-module dependency.
package units

// Celsius is a temperature.
type Celsius float64

// Watts is a power flow.
type Watts float64

// Seconds is a duration.
type Seconds float64

// TempVec is a typed temperature vector.
type TempVec []float64

// Raw exposes the backing storage.
func (v TempVec) Raw() []float64 { return v }

// PowerVec is a typed power vector.
type PowerVec []float64

// Raw exposes the backing storage.
func (v PowerVec) Raw() []float64 { return v }
