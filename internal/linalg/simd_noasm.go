//go:build !amd64 || noasm

package linalg

var simdAvailable = false

var expAvailable = false

// fusedTick64 is never reached on non-amd64 or noasm builds:
// SIMDAccelerated is false everywhere, so MulAddInto always takes the
// generic path.
func fusedTick64(m *float64, cols int, x *float64, bias *float64, y *float64) {
	panic("linalg: fusedTick64 called without SIMD support")
}

// fusedTickBatch56x4 is never reached on non-amd64 or noasm builds:
// MulBatchInto always takes the generic blocked path.
func fusedTickBatch56x4(m *float64, cols int, x *float64, xStride int, bias *float64, y *float64, k int) {
	panic("linalg: fusedTickBatch56x4 called without SIMD support")
}

// expKernel is never reached on non-amd64 or noasm builds: ExpInto
// always runs math.Exp per element.
func expKernel(dst, x *float64, n int) (stop int, oob uint8) {
	panic("linalg: expKernel called without SIMD support")
}
