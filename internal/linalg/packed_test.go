package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"unsafe"
)

// randomPacked builds a rows×(c1+c2) packed pair plus the row-major
// originals for reference.
func randomPacked(rng *rand.Rand, rows, c1, c2 int) (*Packed, *Matrix, *Matrix) {
	m1 := NewMatrix(rows, c1)
	m2 := NewMatrix(rows, c2)
	for i := 0; i < rows; i++ {
		for j := 0; j < c1; j++ {
			m1.Set(i, j, rng.NormFloat64())
		}
		for j := 0; j < c2; j++ {
			m2.Set(i, j, rng.NormFloat64())
		}
	}
	return Pack(m1, m2), m1, m2
}

// mulAddGeneric forces the generic path regardless of SIMD support.
func mulAddGeneric(p *Packed, y, bias, x []float64) {
	copy(y, bias)
	for j := 0; j < p.cols; j++ {
		xj := x[j]
		col := p.data[j*p.stride : j*p.stride+p.rows]
		for i, v := range col {
			y[i] += v * xj
		}
	}
}

func TestPackedMulAddMatchesRowMajor(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, dims := range [][3]int{{55, 55, 45}, {1, 1, 1}, {64, 10, 3}, {23, 23, 13}, {70, 20, 5}} {
		rows, c1, c2 := dims[0], dims[1], dims[2]
		p, m1, m2 := randomPacked(rng, rows, c1, c2)
		x := make([]float64, c1+c2)
		for j := range x {
			x[j] = rng.NormFloat64()
		}
		bias := make([]float64, p.Stride())
		for i := 0; i < rows; i++ {
			bias[i] = rng.NormFloat64()
		}
		y := make([]float64, p.Stride())
		p.MulAddInto(y, bias, x)

		w1 := m1.MulVec(x[:c1])
		w2 := m2.MulVec(x[c1:])
		for i := 0; i < rows; i++ {
			want := bias[i] + w1[i] + w2[i]
			if math.Abs(y[i]-want) > 1e-11*(1+math.Abs(want)) {
				t.Fatalf("rows=%d: y[%d] = %g, want %g", rows, i, y[i], want)
			}
		}
	}
}

func TestPackedSIMDMatchesGeneric(t *testing.T) {
	if !SIMDEnabled() {
		t.Skip("no SIMD on this machine; generic path is the only path")
	}
	rng := rand.New(rand.NewSource(33))
	p, _, _ := randomPacked(rng, 55, 55, 45)
	if !p.SIMDAccelerated() {
		t.Fatal("55-row packed operand should take the SIMD path")
	}
	x := make([]float64, p.Cols())
	for j := range x {
		x[j] = rng.NormFloat64()
	}
	bias := make([]float64, p.Stride())
	for i := 0; i < p.Rows(); i++ {
		bias[i] = rng.NormFloat64()
	}
	simd := make([]float64, p.Stride())
	gen := make([]float64, p.Stride())
	p.MulAddInto(simd, bias, x)
	mulAddGeneric(p, gen, bias, x)
	// FMA contracts the multiply-add, so the two paths agree to a few
	// ulps, not bit-exactly.
	for i := 0; i < p.Rows(); i++ {
		if math.Abs(simd[i]-gen[i]) > 1e-12*(1+math.Abs(gen[i])) {
			t.Fatalf("row %d: simd %g vs generic %g", i, simd[i], gen[i])
		}
	}
}

func TestPackedAlignment(t *testing.T) {
	p, _, _ := randomPacked(rand.New(rand.NewSource(1)), 55, 55, 45)
	if addr := uintptr(unsafe.Pointer(&p.data[0])); addr%64 != 0 {
		t.Fatalf("packed data misaligned: %#x", addr)
	}
	if p.Stride() != packedStride {
		t.Fatalf("stride %d, want %d", p.Stride(), packedStride)
	}
	// Padding rows must be zero so the SIMD lanes beyond Rows stay inert.
	for j := 0; j < p.Cols(); j++ {
		for i := p.Rows(); i < p.Stride(); i++ {
			if v := p.data[j*p.Stride()+i]; v != 0 {
				t.Fatalf("padding row %d of column %d holds %g", i, j, v)
			}
		}
	}
}

func TestPackedWideFallsBackToGeneric(t *testing.T) {
	// More than 64 rows cannot use the 8-accumulator kernel.
	p, m1, m2 := randomPacked(rand.New(rand.NewSource(2)), 70, 20, 5)
	if p.SIMDAccelerated() {
		t.Fatal("70-row operand claimed SIMD acceleration")
	}
	if p.Stride() != 70 {
		t.Fatalf("wide stride %d, want natural 70", p.Stride())
	}
	x := make([]float64, 25)
	for j := range x {
		x[j] = 1
	}
	y := make([]float64, 70)
	p.MulAddInto(y, make([]float64, 70), x)
	w1 := m1.MulVec(x[:20])
	w2 := m2.MulVec(x[20:])
	for i := range y {
		want := w1[i] + w2[i]
		if math.Abs(y[i]-want) > 1e-11*(1+math.Abs(want)) {
			t.Fatalf("row %d: %g vs %g", i, y[i], want)
		}
	}
}

func TestPackedPanics(t *testing.T) {
	p, _, _ := randomPacked(rand.New(rand.NewSource(4)), 8, 4, 4)
	cases := []func(){
		func() { Pack() },
		func() { Pack(NewMatrix(2, 2), NewMatrix(3, 2)) },
		func() { p.MulAddInto(make([]float64, p.Stride()), make([]float64, p.Stride()), make([]float64, 3)) },
		func() { p.MulAddInto(make([]float64, 8), make([]float64, p.Stride()), make([]float64, 8)) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: bad dimensions accepted", i)
				}
			}()
			f()
		}()
	}
}

// TestMulBatchIntoMatchesSequential is the bit-identity guard of the
// batched tick: every lane of a MulBatchInto panel must equal the
// corresponding MulAddInto result exactly — not to tolerance — for
// padded and tight x strides and for every kernel route: whole quads
// (k = 4, 8), quads plus a 1–3 lane single-lane remainder (5, 6, 7,
// 10), remainders alone (1–3), operands at and past the quad kernel's
// 56-row limit (56, 57, 64, which run lane by lane above 56) and past
// the packed stride (70, generic).
func TestMulBatchIntoMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for _, rows := range []int{55, 56, 57, 64, 8, 70} {
		p, _, _ := randomPacked(rng, rows, rows, 13)
		stride := p.Stride()
		for _, k := range []int{1, 2, 3, 4, 5, 6, 7, 8, 10} {
			for _, xStride := range []int{p.Cols(), p.Cols() + 9} {
				x := make([]float64, (k-1)*xStride+p.Cols())
				for j := range x {
					x[j] = rng.NormFloat64()
				}
				bias := make([]float64, k*stride)
				for l := 0; l < k; l++ {
					for i := 0; i < rows; i++ {
						bias[l*stride+i] = rng.NormFloat64()
					}
				}
				y := make([]float64, k*stride)
				p.MulBatchInto(y, bias, k, x, xStride)

				ref := make([]float64, stride)
				for l := 0; l < k; l++ {
					p.MulAddInto(ref, bias[l*stride:(l+1)*stride], x[l*xStride:l*xStride+p.Cols()])
					for i := 0; i < rows; i++ {
						if got := y[l*stride+i]; got != ref[i] {
							t.Fatalf("rows=%d k=%d xStride=%d: lane %d row %d: batch %g != sequential %g",
								rows, k, xStride, l, i, got, ref[i])
						}
					}
				}
			}
		}
	}
}

// TestMulBatchIntoZeroAlloc holds the zero-allocation contract of the
// dense kernels: the batched and the one-lane packed GEMV, and
// Matrix.MulVecInto.
func TestMulBatchIntoZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	p, m, _ := randomPacked(rng, 55, 42, 13) // 55 cols ≤ the 64-entry stride
	k, st := 8, p.Stride()
	x := make([]float64, k*st)
	for j := range x {
		x[j] = rng.NormFloat64()
	}
	y := make([]float64, k*st)
	bias := make([]float64, k*st)
	for _, kernel := range []struct {
		name string
		call func()
	}{
		{"MulBatchInto", func() { p.MulBatchInto(y, bias, k, x, st) }},
		{"MulAddInto", func() { p.MulAddInto(y[:st], bias[:st], x[:p.Cols()]) }},
		{"Matrix.MulVecInto", func() { m.MulVecInto(y[:m.Rows()], x[:m.Cols()]) }},
	} {
		if allocs := testing.AllocsPerRun(100, kernel.call); allocs != 0 {
			t.Errorf("%s allocates %.0f objects per call, want 0", kernel.name, allocs)
		}
	}
}

func TestMulBatchIntoPanics(t *testing.T) {
	p, _, _ := randomPacked(rand.New(rand.NewSource(57)), 8, 4, 4)
	st := p.Stride()
	cases := []func(){
		func() { p.MulBatchInto(make([]float64, st), make([]float64, st), -1, make([]float64, 8), 8) },
		func() { p.MulBatchInto(make([]float64, st), make([]float64, st), 1, make([]float64, 8), 4) },
		func() { p.MulBatchInto(make([]float64, st), make([]float64, 2*st), 2, make([]float64, 16), 8) },
		func() { p.MulBatchInto(make([]float64, 2*st), make([]float64, 2*st), 2, make([]float64, 10), 8) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: bad batch dimensions accepted", i)
				}
			}()
			f()
		}()
	}
	// k == 0 is a no-op, not a panic.
	p.MulBatchInto(nil, nil, 0, nil, 8)
}

// BenchmarkPackedMulBatch55 measures the raw batched kernel at the
// CMP4 operand shape (55 rows — the ≤56 quad/pair path — by 55
// columns) across lane counts, isolated from the simulator's per-tick
// bookkeeping. ns/lane is the number to watch: it should fall as k
// grows while the propagator stream amortizes over more lanes, and
// flatten once the FMA ports saturate.
func BenchmarkPackedMulBatch55(b *testing.B) {
	for _, k := range []int{1, 2, 4, 8, 16, 32} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			rng := rand.New(rand.NewSource(8))
			p, _, _ := randomPacked(rng, 55, 50, 5)
			stride := p.Stride()
			x := make([]float64, k*stride)
			for j := range x {
				x[j] = rng.NormFloat64()
			}
			bias := make([]float64, k*stride)
			y := make([]float64, k*stride)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.MulBatchInto(y, bias, k, x, stride)
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*k), "ns/lane")
		})
	}
}

func BenchmarkPackedMulAdd55(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	p, _, _ := randomPacked(rng, 55, 55, 45)
	x := make([]float64, p.Cols())
	for j := range x {
		x[j] = rng.NormFloat64()
	}
	bias := make([]float64, p.Stride())
	y := make([]float64, p.Stride())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.MulAddInto(y, bias, x)
	}
}
