//go:build !amd64 || noasm

package sparse

// groupKernelAVX512 is false on non-amd64 and noasm builds: every
// layout runs the Go twin.
var groupKernelAVX512 = false

// mulGroupsAVX512 is never reached on non-amd64 or noasm builds.
func mulGroupsAVX512(grp *rowGroup, ngrp int, col *[groupWidth]int32, val *[groupWidth]float64, x, y *float64, longCol *int32, longVal *float64, nlong int) float64 {
	panic("sparse: mulGroupsAVX512 called without SIMD support")
}
