package linalg

import (
	"fmt"
	"unsafe"
)

// packedStride is the fixed column stride (in float64s) of the SIMD
// kernel: eight ZMM accumulators of eight lanes each cover up to 64
// rows, so every column occupies one 512-byte panel and the assembly
// needs no masking or tail handling. Matrices with more rows fall back
// to the generic path at their natural stride.
const packedStride = 64

// Packed is a column-major, zero-padded packing of one or more
// equal-row matrices laid side by side, built for the fused update
// y = bias + M₁·x₁ + M₂·x₂ + … that the thermal model's exact
// discretization performs once per control tick. Column j is stored
// contiguously at offset j·Stride, so a matrix-vector product streams
// the data linearly and vectorizes across rows (axpy form) instead of
// reducing along them. A Packed is read-only after construction and
// safe to share across goroutines.
type Packed struct {
	rows, cols, stride int
	data               []float64
}

// Pack concatenates the given matrices column-wise into one packed
// operand. All matrices must have the same number of rows.
func Pack(ms ...*Matrix) *Packed {
	if len(ms) == 0 {
		panic("linalg: Pack needs at least one matrix")
	}
	rows := ms[0].rows
	cols := 0
	for _, m := range ms {
		if m.rows != rows {
			panic(fmt.Sprintf("linalg: Pack row mismatch: %d vs %d", m.rows, rows))
		}
		cols += m.cols
	}
	stride := rows
	if rows <= packedStride {
		stride = packedStride
	}
	p := &Packed{rows: rows, cols: cols, stride: stride,
		data: alignedSlice(cols * stride)}
	j0 := 0
	for _, m := range ms {
		for j := 0; j < m.cols; j++ {
			col := p.data[(j0+j)*stride:]
			for i := 0; i < rows; i++ {
				col[i] = m.At(i, j)
			}
		}
		j0 += m.cols
	}
	return p
}

// Rows returns the logical (unpadded) row count.
func (p *Packed) Rows() int { return p.rows }

// Cols returns the total column count across the packed matrices.
func (p *Packed) Cols() int { return p.cols }

// Stride returns the padded column stride; callers of MulAddInto must
// size y and bias to it.
func (p *Packed) Stride() int { return p.stride }

// SIMDAccelerated reports whether MulAddInto on this operand runs the
// vectorized kernel rather than the generic loop.
func (p *Packed) SIMDAccelerated() bool {
	return simdAvailable && p.stride == packedStride
}

// MulAddInto computes y = bias + P·x. x must have length Cols; y and
// bias must have length Stride (entries past Rows are padding — the
// kernel writes them, so y[Rows:Stride] is scratch, and bias padding
// should be zero). y must not alias x or bias.
func (p *Packed) MulAddInto(y, bias, x []float64) {
	if len(x) != p.cols || len(y) != p.stride || len(bias) != p.stride {
		p.badMulAddArgs(len(x), len(y), len(bias))
	}
	if p.SIMDAccelerated() && p.cols > 0 {
		fusedTick64(&p.data[0], p.cols, &x[0], &bias[0], &y[0])
		return
	}
	p.mulAddGeneric(y, bias, x)
}

// badMulAddArgs formats the MulAddInto argument panic off the hot
// path: a cold, non-inlined helper keeps fmt.Sprintf and its
// allocating interface conversions out of the kernel body.
//
//go:noinline
func (p *Packed) badMulAddArgs(nx, ny, nbias int) {
	if nx != p.cols {
		panic(fmt.Sprintf("linalg: MulAddInto x length %d, want %d cols", nx, p.cols))
	}
	panic(fmt.Sprintf("linalg: MulAddInto y/bias lengths %d/%d, want stride %d",
		ny, nbias, p.stride))
}

// mulAddGeneric is the portable axpy-form y = bias + P·x for one lane.
// Both MulAddInto and MulBatchInto fall back to it, so the two paths
// produce bit-identical results on machines without the SIMD kernel.
func (p *Packed) mulAddGeneric(y, bias, x []float64) {
	copy(y, bias)
	for j := 0; j < p.cols; j++ {
		xj := x[j]
		if xj == 0 { // exact-zero skip adds no rounding (x+0 == x)
			continue
		}
		col := p.data[j*p.stride : j*p.stride+p.rows]
		for i, v := range col {
			y[i] += v * xj
		}
	}
}

// MulBatchInto is the multi-RHS (GEMM) form of MulAddInto: for each
// lane l in [0, k) it computes
//
//	y[l·Stride : (l+1)·Stride] = bias[l·Stride : (l+1)·Stride] + P·x[l·xStride : l·xStride+Cols]
//
// amortizing the propagator stream across all lanes of the panel. Lane
// l of y and bias occupies one full padded column at offset l·Stride;
// lane l of x starts at l·xStride and spans Cols entries, so xStride ≥
// Cols lets callers hand over padded state panels directly (xStride ==
// Stride for a state panel, xStride == Cols for a tightly packed input
// panel). Per lane the arithmetic — operation kind and column order —
// is exactly MulAddInto's, so a batched tick is bit-identical to k
// sequential ticks. Zero allocations; y must not alias x or bias.
//
// Unlike MulAddInto, entries past Rows in each y lane are unspecified
// on return: when the live rows fit in seven of the eight ZMM chunks
// (Rows ≤ 56) the quad kernel skips the all-zero padding chunk
// entirely and never writes it.
func (p *Packed) MulBatchInto(y, bias []float64, k int, x []float64, xStride int) {
	if k == 0 {
		return
	}
	if k < 0 || xStride < p.cols || len(y) != k*p.stride || len(bias) != k*p.stride ||
		len(x) < (k-1)*xStride+p.cols {
		p.badMulBatchArgs(len(y), len(bias), k, len(x), xStride)
	}
	if p.SIMDAccelerated() && p.cols > 0 {
		// Whole groups of four lanes run the quad kernel, where each
		// 512-byte propagator column read from memory feeds four lanes'
		// FMA chains. Every other lane runs the single-lane kernel: the
		// 1–3 lane remainder, and every lane of an operand with more
		// than 56 rows, which the quad kernel's seven row chunks do not
		// cover.
		l := 0
		if p.rows <= 56 {
			l = k &^ 3
			if l > 0 {
				fusedTickBatch56x4(&p.data[0], p.cols, &x[0], xStride, &bias[0], &y[0], l)
			}
		}
		for ; l < k; l++ {
			fusedTick64(&p.data[0], p.cols, &x[l*xStride], &bias[l*p.stride], &y[l*p.stride])
		}
		return
	}
	p.mulBatchGeneric(y, bias, k, x, xStride)
}

// mulBatchGeneric is the portable multi-lane twin of MulBatchInto's
// SIMD dispatch and its fallback on machines without it. Lanes are
// walked in blocks of four so each packed column is read from memory
// once per block instead of once per lane — the same register
// blocking the quad asm kernel performs, expressed as four concurrent
// axpy updates the compiler can keep in registers. Per lane the
// operation kind and column order are exactly mulAddGeneric's (bias
// copy, then ascending-column axpy with exact-zero skip), so every lane
// is bit-identical to the sequential path regardless of how the lanes
// are grouped.
func (p *Packed) mulBatchGeneric(y, bias []float64, k int, x []float64, xStride int) {
	copy(y[:k*p.stride], bias[:k*p.stride])
	l := 0
	for ; l+4 <= k; l += 4 {
		yA := y[(l+0)*p.stride : (l+0)*p.stride+p.rows]
		yB := y[(l+1)*p.stride : (l+1)*p.stride+p.rows]
		yC := y[(l+2)*p.stride : (l+2)*p.stride+p.rows]
		yD := y[(l+3)*p.stride : (l+3)*p.stride+p.rows]
		xA := x[(l+0)*xStride:]
		xB := x[(l+1)*xStride:]
		xC := x[(l+2)*xStride:]
		xD := x[(l+3)*xStride:]
		for j := 0; j < p.cols; j++ {
			col := p.data[j*p.stride : j*p.stride+p.rows]
			a, b, c, d := xA[j], xB[j], xC[j], xD[j]
			if a != 0 && b != 0 && c != 0 && d != 0 {
				for i, v := range col {
					yA[i] += v * a
					yB[i] += v * b
					yC[i] += v * c
					yD[i] += v * d
				}
				continue
			}
			// A lane with a zero input skips the column, exactly as
			// mulAddGeneric would; the others still share this read of it.
			if a != 0 {
				for i, v := range col {
					yA[i] += v * a
				}
			}
			if b != 0 {
				for i, v := range col {
					yB[i] += v * b
				}
			}
			if c != 0 {
				for i, v := range col {
					yC[i] += v * c
				}
			}
			if d != 0 {
				for i, v := range col {
					yD[i] += v * d
				}
			}
		}
	}
	for ; l < k; l++ {
		p.mulAddGeneric(y[l*p.stride:(l+1)*p.stride],
			bias[l*p.stride:(l+1)*p.stride],
			x[l*xStride:l*xStride+p.cols])
	}
}

// badMulBatchArgs formats the MulBatchInto argument panics off the hot
// path (see badMulAddArgs).
//
//go:noinline
func (p *Packed) badMulBatchArgs(ny, nbias, k, nx, xStride int) {
	if k < 0 {
		panic(fmt.Sprintf("linalg: MulBatchInto negative lane count %d", k))
	}
	if xStride < p.cols {
		panic(fmt.Sprintf("linalg: MulBatchInto xStride %d below %d cols", xStride, p.cols))
	}
	if ny != k*p.stride || nbias != k*p.stride {
		panic(fmt.Sprintf("linalg: MulBatchInto y/bias lengths %d/%d, want %d lanes x stride %d",
			ny, nbias, k, p.stride))
	}
	panic(fmt.Sprintf("linalg: MulBatchInto x length %d, want at least %d",
		nx, (k-1)*xStride+p.cols))
}

// SIMDEnabled reports whether this binary runs the vectorized packed
// kernel on this machine (AVX-512F detected at startup). The thermal
// model consults it when deciding whether the exact-discretization step
// beats the sparse RK4 kernel at small step sizes.
func SIMDEnabled() bool { return simdAvailable }

// SIMDCapableRows reports whether a packed operand with the given row
// count would run the vectorized kernel on this machine.
func SIMDCapableRows(rows int) bool { return simdAvailable && rows <= packedStride }

// NewAligned returns a zeroed []float64 whose backing array starts on
// a 64-byte boundary — the allocation helper for the state panels fed
// to MulBatchInto, so every padded lane maps to whole cache lines.
func NewAligned(n int) []float64 { return alignedSlice(n) }

// alignedSlice returns a zeroed slice of n float64s whose backing array
// starts on a 64-byte boundary, so every 512-byte packed column maps to
// whole cache lines (and aligned ZMM loads).
func alignedSlice(n int) []float64 {
	buf := make([]float64, n+7)
	addr := uintptr(unsafe.Pointer(&buf[0]))
	off := 0
	if r := addr % 64; r != 0 {
		off = int((64 - r) / 8)
	}
	return buf[off : off+n : off+n]
}
