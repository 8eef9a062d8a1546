package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// Differential fuzz targets for the asm-backed kernels: every input is
// run through both the dispatching entry point (SIMD when available)
// and the registered pure-Go twin, and the results compared. These are
// the tested-by targets named in the //mtlint:generic directives in
// simd_amd64.go, and they double as the noasm leg's property tests —
// on a noasm build both paths collapse to the generic kernel and the
// comparisons must be exact.
//
// Inputs arrive as (seed, size, ...) primitives rather than raw bytes:
// a seeded PRNG expands them into operands, so every corpus entry is
// reproducible and minimization stays meaningful.

// fuzzTol is the relative tolerance for asm-vs-generic comparisons.
// The SIMD kernels contract mul+add into FMA, so individual results
// may differ from the generic two-rounding path by a few ULP; 1e-12
// is ~4 decimal digits of slack over unit roundoff while still
// catching any indexing or masking bug outright.
const fuzzTol = 1e-12

// relClose reports whether a and b agree to fuzzTol relative to the
// larger magnitude (absolute near zero).
func relClose(a, b float64) bool {
	d := math.Abs(a - b)
	if d <= fuzzTol {
		return true
	}
	return d <= fuzzTol*math.Max(math.Abs(a), math.Abs(b))
}

// randPacked builds a rows×cols matrix of standard normals and packs
// it, along with a random input vector and bias panel.
func randPacked(rng *rand.Rand, rows, cols int) (p *Packed, x, bias []float64) {
	m := NewMatrix(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			m.Set(i, j, rng.NormFloat64())
		}
	}
	p = Pack(m)
	x = make([]float64, cols)
	for j := range x {
		x[j] = rng.NormFloat64()
	}
	bias = make([]float64, p.Stride())
	for i := 0; i < rows; i++ {
		bias[i] = rng.NormFloat64()
	}
	return p, x, bias
}

// FuzzMulAddInto is the differential target for fusedTick64: MulAddInto
// (SIMD when available) against the registered generic twin
// mulAddGeneric, within FMA tolerance.
func FuzzMulAddInto(f *testing.F) {
	f.Add(int64(1), int64(8), int64(6))
	f.Add(int64(2), int64(64), int64(64)) // full-stride operand
	f.Add(int64(3), int64(56), int64(55)) // CMP4-sized network
	f.Add(int64(4), int64(1), int64(1))
	f.Add(int64(5), int64(63), int64(7)) // odd row count below stride
	f.Fuzz(func(t *testing.T, seed, rowsIn, colsIn int64) {
		rows := int((uint64(rowsIn)-1)%64) + 1 // 1..64: packed fast-path shapes
		cols := int((uint64(colsIn)-1)%80) + 1
		rng := rand.New(rand.NewSource(seed))
		p, x, bias := randPacked(rng, rows, cols)

		got := make([]float64, p.Stride())
		want := make([]float64, p.Stride())
		p.MulAddInto(got, bias, x)
		p.mulAddGeneric(want, bias, x)
		for i := 0; i < rows; i++ {
			if !relClose(got[i], want[i]) {
				t.Fatalf("rows=%d cols=%d row %d: MulAddInto=%g mulAddGeneric=%g (diff %g)",
					rows, cols, i, got[i], want[i], got[i]-want[i])
			}
		}
	})
}

// FuzzMulBatchInto is the differential target for MulBatchInto's SIMD
// dispatch: fusedTickBatch56x4 on whole quads of lanes with at most 56
// rows, fusedTick64 on every other lane (lane counts reach 8, so quad
// groups plus every remainder width are exercised). Three oracles:
// per lane, the batched kernel must be bit-identical to sequential
// MulAddInto calls (documented contract — same operation kind and
// column order) and must match the generic twin mulAddGeneric within
// FMA tolerance; and the blocked generic twin mulBatchGeneric must be
// bit-identical to per-lane mulAddGeneric, since on noasm builds it IS
// the batch path and the bit-identity contract has to survive there
// too. Ragged widths are exercised by varying xStride between tight
// (cols) and padded (stride).
func FuzzMulBatchInto(f *testing.F) {
	f.Add(int64(1), int64(8), int64(6), int64(3), false)
	f.Add(int64(2), int64(64), int64(64), int64(4), true) // above 56 rows: every lane single
	f.Add(int64(3), int64(56), int64(55), int64(7), true) // one quad plus a 3-lane remainder
	f.Add(int64(4), int64(56), int64(55), int64(1), false)
	f.Add(int64(5), int64(40), int64(3), int64(2), false) // ragged: narrow operand, tight x
	f.Fuzz(func(t *testing.T, seed, rowsIn, colsIn, lanesIn int64, padX bool) {
		rows := int((uint64(rowsIn)-1)%64) + 1
		cols := int((uint64(colsIn)-1)%64) + 1 // ≤ stride so tight and padded xStride both stay legal
		k := int((uint64(lanesIn)-1)%8) + 1
		rng := rand.New(rand.NewSource(seed))
		p, _, _ := randPacked(rng, rows, cols)
		stride := p.Stride()

		xStride := cols
		if padX {
			xStride = stride
		}
		x := make([]float64, k*xStride)
		bias := make([]float64, k*stride)
		for l := 0; l < k; l++ {
			for j := 0; j < cols; j++ {
				x[l*xStride+j] = rng.NormFloat64()
			}
			for i := 0; i < rows; i++ {
				bias[l*stride+i] = rng.NormFloat64()
			}
		}

		got := make([]float64, k*stride)
		p.MulBatchInto(got, bias, k, x, xStride)

		blocked := make([]float64, k*stride)
		p.mulBatchGeneric(blocked, bias, k, x, xStride)

		seq := make([]float64, stride)
		gen := make([]float64, stride)
		for l := 0; l < k; l++ {
			lx := x[l*xStride : l*xStride+cols]
			lb := bias[l*stride : (l+1)*stride]
			p.MulAddInto(seq, lb, lx)
			p.mulAddGeneric(gen, lb, lx)
			for i := 0; i < rows; i++ {
				if got[l*stride+i] != seq[i] {
					t.Fatalf("rows=%d cols=%d k=%d xStride=%d lane %d row %d: batch=%g sequential=%g — batched tick must be bit-identical",
						rows, cols, k, xStride, l, i, got[l*stride+i], seq[i])
				}
				if !relClose(got[l*stride+i], gen[i]) {
					t.Fatalf("rows=%d cols=%d k=%d xStride=%d lane %d row %d: batch=%g mulAddGeneric=%g (diff %g)",
						rows, cols, k, xStride, l, i, got[l*stride+i], gen[i], got[l*stride+i]-gen[i])
				}
				if blocked[l*stride+i] != gen[i] {
					t.Fatalf("rows=%d cols=%d k=%d xStride=%d lane %d row %d: mulBatchGeneric=%g mulAddGeneric=%g — blocked generic must be bit-identical per lane",
						rows, cols, k, xStride, l, i, blocked[l*stride+i], gen[i])
				}
			}
		}
	})
}

// FuzzExpm checks the scaling identity e^A = (e^{A/2})² across the
// Padé degree boundaries. The two sides take different code paths for
// almost every norm — different degrees, different scaling exponents —
// so any branch mishandling (like the e^(2A) regression, where norms
// in (θ₉, θ₁₃/2] produced a negative scaling exponent and the result
// was squared once too often) breaks the identity by orders of
// magnitude, far outside the tolerance.
func FuzzExpm(f *testing.F) {
	f.Add(int64(1), int64(4), 2.5)                // the e^(2A) regression band (θ₉, θ₁₃/2]
	f.Add(int64(2), int64(6), 2.097847961257068)  // exactly θ₉
	f.Add(int64(3), int64(6), 2.0978479612570685) // one ULP above θ₉
	f.Add(int64(4), int64(5), 5.371920351148152)  // exactly θ₁₃
	f.Add(int64(5), int64(5), 5.5)                // just past θ₁₃: first scaled branch
	f.Add(int64(6), int64(3), 0.014)              // θ₃ boundary
	f.Add(int64(7), int64(8), 12.0)               // multiple squarings
	f.Fuzz(func(t *testing.T, seed, sizeIn int64, norm float64) {
		n := int((uint64(sizeIn)-1)%10) + 1
		if math.IsNaN(norm) || math.IsInf(norm, 0) {
			t.Skip("non-finite target norm")
		}
		norm = math.Abs(norm)
		if norm < 1e-6 || norm > 16 {
			t.Skip("target norm outside the exercised range")
		}
		rng := rand.New(rand.NewSource(seed))
		a := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, rng.NormFloat64())
			}
		}
		if cur := a.Norm1(); cur > 0 {
			a = a.scaled(norm / cur)
		}

		whole, err := Expm(a)
		if err != nil {
			t.Fatalf("Expm(A): %v", err)
		}
		half, err := Expm(a.scaled(0.5))
		if err != nil {
			t.Fatalf("Expm(A/2): %v", err)
		}
		squared := half.Mul(half)

		// Relative to the result magnitude: e^A entries grow like e^norm,
		// and the squaring step loses a few digits, so scale the bound.
		tol := 1e-9 * math.Max(1, whole.MaxAbs())
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if d := math.Abs(whole.At(i, j) - squared.At(i, j)); d > tol {
					t.Fatalf("n=%d norm=%g: e^A[%d,%d]=%g but (e^(A/2))²=%g (diff %g, tol %g)",
						n, norm, i, j, whole.At(i, j), squared.At(i, j), d, tol)
				}
			}
		}
	})
}

// FuzzExpInto is the differential target for expKernel: ExpInto (the
// vector kernel when available) against the generic twin expGeneric,
// math.Exp per element, bit for bit — into a fresh dst and in place.
// Each input expands into a vector of up to 40 elements, enough for
// whole chunks plus a tail, that mixes the two fuzzed values and their
// neighbours with random finite values and random bit patterns, so the
// fuzzer steers the edge cases while the PRNG decides which lanes and
// chunks they land in.
func FuzzExpInto(f *testing.F) {
	f.Add(int64(1), uint8(40), -0.68, 0.34)             // leakage exponents at 45 and 105 °C
	f.Add(int64(2), uint8(17), expDomain, -expDomain)   // the kernel's domain bound
	f.Add(int64(3), uint8(9), 709.78, -745.1)           // overflow and underflow edges
	f.Add(int64(4), uint8(8), math.NaN(), math.Inf(-1)) // specials in one full chunk
	f.Fuzz(func(t *testing.T, seed int64, nIn uint8, a, b float64) {
		n := int(nIn) % 41
		rng := rand.New(rand.NewSource(seed))
		x := make([]float64, n)
		for i := range x {
			switch rng.Intn(6) {
			case 0:
				x[i] = a
			case 1:
				x[i] = b
			case 2:
				x[i] = math.Nextafter(a, b)
			case 3:
				x[i] = math.Nextafter(b, a)
			case 4:
				x[i] = -745 + 1455*rng.Float64()
			default:
				x[i] = math.Float64frombits(rng.Uint64())
			}
		}
		want := make([]float64, n)
		expGeneric(want, x)
		got := make([]float64, n)
		ExpInto(got, x)
		inPlace := append([]float64(nil), x...)
		ExpInto(inPlace, inPlace)
		for i, v := range x {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("n=%d element %d: ExpInto(%v) = %v, math.Exp = %v", n, i, v, got[i], want[i])
			}
			if math.Float64bits(inPlace[i]) != math.Float64bits(want[i]) {
				t.Fatalf("n=%d element %d, in place: ExpInto(%v) = %v, math.Exp = %v", n, i, v, inPlace[i], want[i])
			}
		}
	})
}
