//go:build amd64 && !noasm

package linalg

// fusedTick64 computes y = bias + M·x for the packed column-major
// operand at the fixed 64-row stride: eight ZMM accumulators hold the
// whole output vector, and each column contributes one broadcast plus
// eight fused multiply-adds. Implemented in simd_amd64.s; only called
// when detectAVX512 reported support.
//
//mtlint:generic mulAddGeneric tested-by FuzzMulAddInto
//go:noescape
func fusedTick64(m *float64, cols int, x *float64, bias *float64, y *float64)

// fusedTickBatch56x4 is the quad-lane GEMM form of fusedTick64 for
// operands whose live rows fit in seven ZMM chunks (Rows ≤ 56): for
// each lane l in [0,k) it computes y[l·64:] = bias[l·64:] +
// M·x[l·xStride:]. k must be a positive multiple of four, and each
// group of four lanes shares every 512-byte propagator column read.
// The seven row chunks are register-blocked into two passes over the
// columns — chunks 0–3 (16 accumulators) then chunks 4–6 (12
// accumulators) — so 4×7 = 28 accumulators never have to coexist in
// the 32 ZMM registers; the operand row-block touched by a pass stays
// resident across all four lanes. Per lane and per row the FMA
// sequence is still ascending column order, exactly fusedTick64's, so
// bit-identity with the sequential kernel is preserved. The all-zero
// padding chunk is skipped, so rows 56–63 of every y lane are
// unspecified on return. Implemented in simd_amd64.s.
//
//mtlint:generic mulBatchGeneric tested-by FuzzMulBatchInto
//go:noescape
func fusedTickBatch56x4(m *float64, cols int, x *float64, xStride int, bias *float64, y *float64, k int)

// expKernel sets dst[i] = math.Exp(x[i]) for i in [0,n), eight lanes
// at a time, with the same IEEE operations in the same order as the FMA
// branch of the runtime's amd64 archExp. It stops at the first chunk
// holding a lane outside |x| ≤ expDomain (NaN, ±Inf, or past the
// bound): that chunk's in-domain lanes are stored, its other lanes are
// left unwritten, and it returns the chunk's start index and its
// out-of-domain lane mask (bit j for lane j). Otherwise it returns n
// and 0. Implemented in simd_amd64.s; only called when expAvailable.
//
//mtlint:generic expGeneric tested-by FuzzExpInto
//go:noescape
func expKernel(dst, x *float64, n int) (stop int, oob uint8)

// cpuid executes the CPUID instruction for the given leaf/subleaf.
//
//mtlint:nogeneric feature-detection primitive, no arithmetic to mirror
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0 (XCR0).
//
//mtlint:nogeneric feature-detection primitive, no arithmetic to mirror
func xgetbv() (eax, edx uint32)

var simdAvailable = detectAVX512()

// expAvailable gates expKernel. Beyond AVX-512F it needs the FMA bit
// (CPUID.1:ECX bit 12): math.Exp takes archExp's FMA branch only when
// the CPU has AVX and FMA, and the kernel repeats that branch, so on a
// CPU without FMA the scalar call would round differently.
var expAvailable = simdAvailable && detectFMA()

// detectFMA reports the FMA feature bit.
func detectFMA() bool {
	_, _, c1, _ := cpuid(1, 0)
	const fma = 1 << 12
	return c1&fma != 0
}

// detectAVX512 reports whether the CPU and OS support the AVX-512F
// instructions the packed kernel uses: XSAVE/OSXSAVE enabled, XCR0
// advertising XMM+YMM+opmask+ZMM state saving, and the AVX-512
// Foundation feature bit set.
func detectAVX512() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, c1, _ := cpuid(1, 0)
	const xsave, osxsave, avx = 1 << 26, 1 << 27, 1 << 28
	if c1&xsave == 0 || c1&osxsave == 0 || c1&avx == 0 {
		return false
	}
	// XCR0: SSE (1), AVX (2), opmask (5), ZMM0-15 upper (6), ZMM16-31 (7).
	const zmmState = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7
	if lo, _ := xgetbv(); lo&zmmState != zmmState {
		return false
	}
	_, b7, _, _ := cpuid(7, 0)
	const avx512f = 1 << 16
	return b7&avx512f != 0
}
