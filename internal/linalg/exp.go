package linalg

import (
	"fmt"
	"math"
	"math/bits"
)

// expDomain bounds the inputs the vector exponential handles itself:
// for |x| ≤ expDomain the runtime's archExp runs straight through, with
// a binary exponent k in [−1021, 1021] and a normal result. Every other
// input — NaN, ±Inf, and the overflow and denormal ranges — goes to
// math.Exp. simd_amd64.s holds the same value.
const expDomain = 708.0

// ExpInto sets dst[i] = math.Exp(x[i]) for every i, bit for bit. dst
// and x must have equal lengths; dst may alias x. On CPUs with
// AVX-512F and FMA the in-domain inputs run eight at a time through an
// assembly kernel that performs the same IEEE operations in the same
// order as math.Exp; every other input, and every input on other CPUs
// or under the noasm build tag, runs math.Exp itself.
//
//mtlint:zeroalloc
func ExpInto(dst, x []float64) { expInto(dst, x) }

// expInto is ExpInto returning how many elements ran math.Exp rather
// than the vector kernel: all of them without the kernel, otherwise
// only those outside |x| ≤ expDomain.
//
//mtlint:zeroalloc
func expInto(dst, x []float64) (fallback int) {
	if len(dst) != len(x) {
		badExpArgs(len(dst), len(x))
	}
	if !expAvailable {
		expGeneric(dst, x)
		return len(x)
	}
	for i := 0; i < len(x); {
		stop, oob := expKernel(&dst[i], &x[i], len(x)-i)
		if oob == 0 {
			break
		}
		// The kernel left these lanes of the chunk at base unwritten,
		// so x[j] is still the input even when dst aliases x.
		base := i + stop
		for m := oob; m != 0; m &= m - 1 {
			j := base + bits.TrailingZeros8(m)
			dst[j] = math.Exp(x[j])
		}
		fallback += bits.OnesCount8(oob)
		i = base + 8
	}
	return fallback
}

// expGeneric is the portable twin of expKernel: math.Exp per element.
//
//mtlint:zeroalloc
func expGeneric(dst, x []float64) {
	dst = dst[:len(x)]
	for i, v := range x {
		dst[i] = math.Exp(v)
	}
}

// badExpArgs formats the ExpInto length panic off the hot path (see
// badMulAddArgs).
//
//go:noinline
func badExpArgs(ndst, nx int) {
	panic(fmt.Sprintf("linalg: ExpInto dst length %d, x length %d", ndst, nx))
}
