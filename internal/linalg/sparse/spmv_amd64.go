//go:build amd64 && !noasm

package sparse

import "multitherm/internal/linalg"

// groupKernelAVX512 selects the row-group kernel for new layouts: the
// AVX-512 kernel wherever linalg's packed kernels run vectorized. Its
// gathers, scatters and mask ops need only AVX-512F, which that check
// covers.
var groupKernelAVX512 = linalg.SIMDEnabled()

// Byte offsets of rowGroup's lo and hi fields and its size. The kernel
// takes them through go_asm.h; TestRowGroupOffsets pins them to
// unsafe.Offsetof and unsafe.Sizeof.
const (
	rowGroupLo   = 32
	rowGroupHi   = 36
	rowGroupSize = 40
)

// mulGroupsAVX512 sets y[r] for every row r of the ngrp groups at grp
// and returns the sum of the long row's nlong entries (longCol,
// longVal), which it runs as a scalar chain beside the groups, one
// entry per group slot. col and val are the layout's slot arrays;
// each pointer may be nil when its count is zero. Implemented in
// spmv_amd64.s. Its Go twin is mulGroups plus rowDot, and
// checkRowGroups compares both with MulVecInto.
//
//go:noescape
func mulGroupsAVX512(grp *rowGroup, ngrp int, col *[groupWidth]int32, val *[groupWidth]float64, x, y *float64, longCol *int32, longVal *float64, nlong int) float64
