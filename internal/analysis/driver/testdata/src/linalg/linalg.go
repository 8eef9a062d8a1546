// Package linalg is a miniature kernel package, one of the fixture
// module's three packages.
package linalg

// MulVec is a placeholder kernel.
func MulVec(dst, src []float64) {
	for i := range dst {
		dst[i] = src[i]
	}
}
