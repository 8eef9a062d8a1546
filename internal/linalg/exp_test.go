package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// checkExpInto runs ExpInto over x, into a fresh dst and in place, and
// fails on the first element whose bits differ from math.Exp's, or if
// either call wrote past the end of its slice.
func checkExpInto(t *testing.T, what string, x []float64) {
	t.Helper()
	const canary = -123.5
	withCanaries := func(src []float64) []float64 {
		buf := make([]float64, len(src)+8)
		for i := range buf {
			buf[i] = canary
		}
		copy(buf, src)
		return buf[:len(src)]
	}
	dst := withCanaries(make([]float64, len(x)))
	ExpInto(dst, x)
	inPlace := withCanaries(x)
	ExpInto(inPlace, inPlace)
	for _, buf := range [][]float64{dst, inPlace} {
		for i, v := range buf[len(x) : len(x)+8] {
			if v != canary {
				t.Fatalf("%s: ExpInto over %d elements wrote %v at index %d", what, len(x), v, len(x)+i)
			}
		}
	}
	for i, v := range x {
		want := math.Float64bits(math.Exp(v))
		if got := math.Float64bits(dst[i]); got != want {
			t.Fatalf("%s: ExpInto(%v) [%d of %d] = %v (%#x), math.Exp = %v (%#x)",
				what, v, i, len(x), dst[i], got, math.Exp(v), want)
		}
		if got := math.Float64bits(inPlace[i]); got != want {
			t.Fatalf("%s, dst aliasing x: ExpInto(%v) [%d of %d] = %v (%#x), math.Exp = %v (%#x)",
				what, v, i, len(x), inPlace[i], got, math.Exp(v), want)
		}
	}
}

// ulpsAround returns the n floats either side of v and v itself.
func ulpsAround(v float64, n int) []float64 {
	out := []float64{v}
	lo, hi := v, v
	for i := 0; i < n; i++ {
		lo, hi = math.Nextafter(lo, math.Inf(-1)), math.Nextafter(hi, math.Inf(1))
		out = append(out, lo, hi)
	}
	return out
}

// TestExpIntoMatchesMathExp pins ExpInto to math.Exp bit for bit: the
// vector kernel must repeat the scalar routine of the running
// toolchain, and the lanes it hands back must land on math.Exp itself.
// The inputs cover a dense grid of the range the leakage model uses,
// the full finite range, random bit patterns, the special values, the
// overflow and denormal edges, the kernel's domain bound, every length
// up to four chunks plus a tail, and chunks mixing in- and out-of-domain
// lanes.
func TestExpIntoMatchesMathExp(t *testing.T) {
	const grid = 1 << 20
	dense := make([]float64, grid+1)
	for i := range dense {
		dense[i] = -8 + 16*float64(i)/grid
	}
	checkExpInto(t, "grid over [-8, 8]", dense)

	rng := rand.New(rand.NewSource(1))
	wide := make([]float64, 1<<16)
	for i := range wide {
		wide[i] = -745 + (710+745)*rng.Float64()
	}
	checkExpInto(t, "uniform over [-745, 710]", wide)
	patterns := make([]float64, 1<<16)
	for i := range patterns {
		patterns[i] = math.Float64frombits(rng.Uint64())
	}
	checkExpInto(t, "random bit patterns", patterns)

	specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
		-math.SmallestNonzeroFloat64, 0x1p-1022, -0x1p-1022, 1, -1}
	checkExpInto(t, "special values", specials)

	var edges []float64
	for _, v := range []float64{-708.4, -745.1, -745.13321910194122, 709.78, 7.09782712893384e+02,
		expDomain, -expDomain} {
		edges = append(edges, ulpsAround(v, 64)...)
	}
	for v := -746.0; v <= -707; v += 1.0 / 64 {
		edges = append(edges, v)
	}
	for v := 707.0; v <= 711; v += 1.0 / 64 {
		edges = append(edges, v)
	}
	checkExpInto(t, "overflow, denormal and domain edges", edges)

	for n := 0; n <= 33; n++ {
		x := make([]float64, n)
		for i := range x {
			x[i] = 4*rng.NormFloat64() - 1
		}
		checkExpInto(t, "short lengths", x)
	}

	// One chunk whose lanes alternate in and out of the domain, then the
	// same lanes shifted so the out-of-domain ones fall in the tail.
	mixed := []float64{0.25, math.NaN(), -1.5, 800, 3, math.Inf(-1), -720, 0.75,
		1, 2, 3, expDomain, math.Nextafter(expDomain, 1000), -expDomain, 5}
	checkExpInto(t, "mixed chunk", mixed)
	checkExpInto(t, "mixed chunk, shifted", mixed[3:])
}

// TestExpIntoFallbackLanes counts the elements that miss the kernel:
// exactly the ones outside |x| ≤ expDomain when the kernel is available
// (so the bound in simd_amd64.s agrees with expDomain), and all of them
// otherwise.
func TestExpIntoFallbackLanes(t *testing.T) {
	out := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Nextafter(expDomain, 1000),
		math.Nextafter(-expDomain, -1000), 710, -745.5, math.MaxFloat64}
	in := []float64{0, -0.5, expDomain, -expDomain, math.Nextafter(expDomain, 0), 1e-310, 12, -300}
	for _, tc := range []struct {
		name string
		x    []float64
		want int
	}{
		{"in domain", in, 0},
		{"out of domain", out, len(out)},
		{"interleaved", []float64{in[0], out[0], in[1], out[1], in[2], out[2], in[3], out[3],
			in[4], out[4], in[5], out[5], in[6]}, 6},
		{"tail only", append(append([]float64(nil), in...), out[:3]...), 3},
		{"one per chunk", append(append(append([]float64(nil), out[0]), in...), out[7], in[0]), 2},
	} {
		want := tc.want
		if !expAvailable {
			want = len(tc.x)
		}
		dst := make([]float64, len(tc.x))
		if got := expInto(dst, tc.x); got != want {
			t.Errorf("%s: %d elements fell back to math.Exp, want %d (kernel available: %v)",
				tc.name, got, want, expAvailable)
		}
		for i, v := range tc.x {
			if math.Float64bits(dst[i]) != math.Float64bits(math.Exp(v)) {
				t.Errorf("%s: ExpInto(%v) = %v, math.Exp = %v", tc.name, v, dst[i], math.Exp(v))
			}
		}
	}
}

// TestExpIntoZeroAllocAndLengthCheck checks the zero-allocation
// contract and that unequal lengths panic.
func TestExpIntoZeroAllocAndLengthCheck(t *testing.T) {
	x := make([]float64, 45)
	dst := make([]float64, 45)
	if allocs := testing.AllocsPerRun(20, func() { ExpInto(dst, x) }); allocs != 0 {
		t.Errorf("ExpInto allocates %v times", allocs)
	}
	defer func() {
		if recover() == nil {
			t.Error("ExpInto with unequal lengths did not panic")
		}
	}()
	ExpInto(dst[:44], x)
}
