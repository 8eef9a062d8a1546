// Package unmarked carries no mtlint directive; it imports units, so
// loading it needs that package's export data.
package unmarked

import "fixture.example/driver/units"

// Hottest returns the first temperature.
func Hottest(temps []float64) float64 { return temps[0] }

// Swap reinterprets a power vector as temperatures.
func Swap(p units.PowerVec) units.TempVec { return units.TempVec(p) }

// Leak returns a vector's backing storage.
func Leak(v units.TempVec) []float64 { return v.Raw() }
