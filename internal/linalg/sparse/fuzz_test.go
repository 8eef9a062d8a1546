package sparse

import (
	"math"
	"math/rand"
	"testing"

	"multitherm/internal/linalg"
)

// FuzzSpMV is the differential target for the sparse mat-vec kernels.
// A seeded PRNG expands (seed, rows, cols, fill) into a matrix realized
// both as a CSR and densely, and MulVecInto must agree with the dense
// Packed.MulAddInto (zero bias) to a rounding tolerance: the two
// accumulate in different orders (CSR walks each row's nonzeros,
// Packed fans out columns). The propagator's row-group kernel is then
// checked bit-identical to MulVecInto, an exact contract, on a second
// matrix shaped by groupedCSR to hold empty rows, leftover rows and
// one row far longer than the rest.
func FuzzSpMV(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(4), uint8(128))
	f.Add(int64(2), uint8(1), uint8(7), uint8(30))
	f.Add(int64(3), uint8(40), uint8(40), uint8(10))
	f.Add(int64(4), uint8(13), uint8(9), uint8(255))
	f.Fuzz(func(t *testing.T, seed int64, r8, c8, fill8 uint8) {
		rows := 1 + int(r8)%48
		cols := 1 + int(c8)%48
		fill := float64(fill8) / 255
		rng := rand.New(rand.NewSource(seed))
		a, d := randCSR(rng, rows, cols, fill)
		p := linalg.Pack(d)
		x := make([]float64, cols)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		ySparse := make([]float64, rows)
		a.MulVecInto(ySparse, x)
		yDense := make([]float64, p.Stride())
		p.MulAddInto(yDense, make([]float64, p.Stride()), x)
		for i := 0; i < rows; i++ {
			// Scale-aware tolerance: both kernels round once per
			// product, so disagreement is bounded by the absolute
			// mass flowing through the row.
			var mass float64
			for j := 0; j < cols; j++ {
				mass += math.Abs(d.At(i, j) * x[j])
			}
			if diff := math.Abs(ySparse[i] - yDense[i]); diff > 1e-12*(1+mass) {
				t.Fatalf("row %d: sparse %.17g dense %.17g (mass %g)", i, ySparse[i], yDense[i], mass)
			}
		}
		// Row-group kernel vs MulVecInto: exact.
		checkRowGroups(t, groupedCSR(rng, 4+rows, 4*cols), rng)
	})
}
