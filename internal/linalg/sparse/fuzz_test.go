package sparse

import (
	"bytes"
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
// Packed fans out columns). The propagator's row-group kernels are
// then checked bit-identical to MulVecInto, an exact contract, on a
// second matrix: one whose row i stores lens[i] entries (modulo the
// column count plus one), or, for empty lens, one shaped by groupedCSR
// to hold empty rows, leftover rows and one row far longer than the
// rest. The last three seeds are shapes the AVX-512 kernel once got
// wrong: no leftover row, a zero-length long row, and groups made only
// of empty rows, so there is no slot at all.
func FuzzSpMV(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(4), uint8(128), []byte(nil))
	f.Add(int64(2), uint8(1), uint8(7), uint8(30), []byte(nil))
	f.Add(int64(3), uint8(40), uint8(40), uint8(10), []byte(nil))
	f.Add(int64(4), uint8(13), uint8(9), uint8(255), []byte(nil))
	f.Add(int64(5), uint8(6), uint8(6), uint8(60), bytes.Repeat([]byte{3}, 2*groupWidth))
	f.Add(int64(6), uint8(6), uint8(6), uint8(60), append(bytes.Repeat([]byte{2}, groupWidth), 0))
	f.Add(int64(7), uint8(6), uint8(6), uint8(60), make([]byte, groupWidth))
	f.Fuzz(func(t *testing.T, seed int64, r8, c8, fill8 uint8, lens []byte) {
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
		// Row-group kernels vs MulVecInto: exact.
		if len(lens) == 0 {
			checkRowGroups(t, groupedCSR(rng, 4+rows, 4*cols), rng)
			return
		}
		shape := make([]int, min(len(lens), 256))
		for i := range shape {
			shape[i] = int(lens[i]) % (4*cols + 1)
		}
		checkRowGroups(t, lengthsCSR(rng, shape, 4*cols), rng)
	})
}
