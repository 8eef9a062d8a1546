// Package sparse provides compressed-sparse-row matrices with
// zero-allocation SpMV/SpMM kernels mirroring the packed dense API in
// internal/linalg, a Jacobi-preconditioned conjugate-gradient solver,
// and a Krylov (Arnoldi) matrix-exponential action. Together these let
// the thermal model's exact-ZOH step cost scale with the nonzero count
// of the RC conduction network instead of N², which is what makes
// 256-1024-node generated floorplans tractable.
//
// Like internal/linalg, this package is deliberately unit-agnostic: it
// operates on raw float64 slices and the callers own the unit
// discipline at the boundary. The kernels are deterministic by
// construction — fixed iteration orders, no maps, no wall-clock — and
// every per-lane arithmetic sequence in the batch kernels is identical
// to the single-vector kernels, so batched and sequential stepping are
// bit-identical.
//
//mtlint:deterministic
package sparse

import (
	"fmt"
	"sort"
)

// CSR is an immutable rows x cols matrix in compressed-sparse-row
// form: row i's entries live in vals[rowPtr[i]:rowPtr[i+1]] with
// column indices colIdx, sorted ascending within each row. Build one
// with a Builder; the kernels assume the invariants it establishes.
type CSR struct {
	rows, cols int
	rowPtr     []int32
	colIdx     []int32
	vals       []float64
}

// Rows returns the row count.
func (a *CSR) Rows() int { return a.rows }

// Cols returns the column count.
func (a *CSR) Cols() int { return a.cols }

// NNZ returns the number of stored entries.
func (a *CSR) NNZ() int { return len(a.vals) }

// At returns the entry at (i, j), zero if not stored. It is a
// convenience for tests and structure probes, not a kernel.
func (a *CSR) At(i, j int) float64 {
	lo, hi := a.rowPtr[i], a.rowPtr[i+1]
	for k := lo; k < hi; k++ {
		if int(a.colIdx[k]) == j {
			return a.vals[k]
		}
	}
	return 0
}

// Norm1 returns the maximum absolute column sum. Allocates a scratch
// column accumulator; call during assembly, not per tick.
func (a *CSR) Norm1() float64 {
	colSum := make([]float64, a.cols)
	for k, v := range a.vals {
		if v < 0 {
			v = -v
		}
		colSum[a.colIdx[k]] += v
	}
	var max float64
	for _, s := range colSum {
		if s > max {
			max = s
		}
	}
	return max
}

// Scaled returns a new CSR with every entry multiplied by s; the
// structure slices are shared with the receiver (they are immutable).
func (a *CSR) Scaled(s float64) *CSR {
	vals := make([]float64, len(a.vals))
	for i, v := range a.vals {
		vals[i] = v * s
	}
	return &CSR{rows: a.rows, cols: a.cols, rowPtr: a.rowPtr, colIdx: a.colIdx, vals: vals}
}

// Builder accumulates (row, col, value) triplets and assembles a CSR.
// Duplicate coordinates are summed. The assembly order is a stable
// sort by (row, col), so the built matrix is a pure function of the
// Add sequence's multiset of triplets.
type Builder struct {
	rows, cols int
	entries    []triplet
}

type triplet struct {
	r, c int32
	v    float64
}

// NewBuilder returns a builder for a rows x cols matrix.
func NewBuilder(rows, cols int) *Builder {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("sparse: NewBuilder(%d, %d): non-positive shape", rows, cols))
	}
	return &Builder{rows: rows, cols: cols}
}

// Add records a triplet. Zero values are kept: an explicitly stored
// zero keeps its slot in the pattern, which matters for structure
// detection on matrices whose values change but whose pattern must not.
func (b *Builder) Add(r, c int, v float64) {
	if r < 0 || r >= b.rows || c < 0 || c >= b.cols {
		panic(fmt.Sprintf("sparse: Add(%d, %d) outside %dx%d", r, c, b.rows, b.cols))
	}
	b.entries = append(b.entries, triplet{r: int32(r), c: int32(c), v: v})
}

// Build assembles the CSR, summing duplicates. The builder may be
// reused afterwards; the returned matrix owns its slices.
func (b *Builder) Build() *CSR {
	sort.SliceStable(b.entries, func(i, j int) bool {
		if b.entries[i].r != b.entries[j].r {
			return b.entries[i].r < b.entries[j].r
		}
		return b.entries[i].c < b.entries[j].c
	})
	a := &CSR{
		rows:   b.rows,
		cols:   b.cols,
		rowPtr: make([]int32, b.rows+1),
	}
	for i := 0; i < len(b.entries); {
		t := b.entries[i]
		v := t.v
		j := i + 1
		for ; j < len(b.entries) && b.entries[j].r == t.r && b.entries[j].c == t.c; j++ {
			v += b.entries[j].v
		}
		a.colIdx = append(a.colIdx, t.c)
		a.vals = append(a.vals, v)
		a.rowPtr[t.r+1]++
		i = j
	}
	for i := 0; i < b.rows; i++ {
		a.rowPtr[i+1] += a.rowPtr[i]
	}
	return a
}

// MulVecInto computes y = A·x. len(y) >= rows and len(x) >= cols.
// The per-row accumulation order is the stored (ascending column)
// order; MulBatchInto uses the identical order per lane, which is the
// bit-identity contract the batched thermal stepper relies on.
//
//mtlint:zeroalloc
func (a *CSR) MulVecInto(y, x []float64) {
	if len(y) < a.rows || len(x) < a.cols {
		badVecArgs(len(y), len(x), a.rows, a.cols)
	}
	rowPtr, colIdx, vals := a.rowPtr, a.colIdx, a.vals
	for i := 0; i < a.rows; i++ {
		var acc float64
		for k := rowPtr[i]; k < rowPtr[i+1]; k++ {
			acc += vals[k] * x[colIdx[k]]
		}
		y[i] = acc
	}
}

// MulAddInto computes y = bias + A·x, the sparse analogue of
// Packed.MulAddInto. bias may alias y.
//
//mtlint:zeroalloc
func (a *CSR) MulAddInto(y, bias, x []float64) {
	if len(y) < a.rows || len(x) < a.cols || len(bias) < a.rows {
		badAddArgs(len(y), len(bias), len(x), a.rows, a.cols)
	}
	rowPtr, colIdx, vals := a.rowPtr, a.colIdx, a.vals
	for i := 0; i < a.rows; i++ {
		acc := bias[i]
		for k := rowPtr[i]; k < rowPtr[i+1]; k++ {
			acc += vals[k] * x[colIdx[k]]
		}
		y[i] = acc
	}
}

// MulBatchInto computes y_l = bias_l + A·x_l for k lanes. Lane l's
// input starts at x[l*xStride] and its output at y[l*yStride]; bias is
// laid out at yStride and may be nil for a pure product. Strides are
// explicit (where Packed bakes its padded stride into the layout)
// because CSR panels are caller-owned; both must be at least the
// matrix dimension. Lanes are blocked by four so the column index and
// value streams are read once per block, and the per-(row, lane)
// accumulation order equals MulVecInto's, keeping batched results
// bit-identical to k separate single-vector products.
//
//mtlint:zeroalloc
func (a *CSR) MulBatchInto(y, bias []float64, k int, x []float64, xStride, yStride int) {
	if k <= 0 || xStride < a.cols || yStride < a.rows ||
		len(x) < (k-1)*xStride+a.cols || len(y) < (k-1)*yStride+a.rows ||
		(bias != nil && len(bias) < (k-1)*yStride+a.rows) {
		badBatchArgs(len(y), len(bias), k, len(x), xStride, yStride, a.rows, a.cols)
	}
	rowPtr, colIdx, vals := a.rowPtr, a.colIdx, a.vals
	for i := 0; i < a.rows; i++ {
		lo, hi := rowPtr[i], rowPtr[i+1]
		l := 0
		for ; l+4 <= k; l += 4 {
			x0 := x[(l+0)*xStride:]
			x1 := x[(l+1)*xStride:]
			x2 := x[(l+2)*xStride:]
			x3 := x[(l+3)*xStride:]
			// The bias seeds the accumulator (not a trailing add) so
			// the rounding sequence equals MulAddInto's exactly.
			var a0, a1, a2, a3 float64
			if bias != nil {
				a0 = bias[(l+0)*yStride+i]
				a1 = bias[(l+1)*yStride+i]
				a2 = bias[(l+2)*yStride+i]
				a3 = bias[(l+3)*yStride+i]
			}
			for p := lo; p < hi; p++ {
				v, c := vals[p], colIdx[p]
				a0 += v * x0[c]
				a1 += v * x1[c]
				a2 += v * x2[c]
				a3 += v * x3[c]
			}
			y[(l+0)*yStride+i] = a0
			y[(l+1)*yStride+i] = a1
			y[(l+2)*yStride+i] = a2
			y[(l+3)*yStride+i] = a3
		}
		for ; l < k; l++ {
			xl := x[l*xStride:]
			var acc float64
			if bias != nil {
				acc = bias[l*yStride+i]
			}
			for p := lo; p < hi; p++ {
				acc += vals[p] * xl[colIdx[p]]
			}
			y[l*yStride+i] = acc
		}
	}
}

// Cold-path argument panics, kept out of the zero-alloc kernel bodies
// so their formatting buffers never show up in the escape analysis of
// the hot code (same idiom as internal/linalg).

//go:noinline
func badVecArgs(ly, lx, rows, cols int) {
	panic(fmt.Sprintf("sparse: MulVecInto: len(y)=%d len(x)=%d for %dx%d", ly, lx, rows, cols))
}

//go:noinline
func badAddArgs(ly, lb, lx, rows, cols int) {
	panic(fmt.Sprintf("sparse: MulAddInto: len(y)=%d len(bias)=%d len(x)=%d for %dx%d", ly, lb, lx, rows, cols))
}

//go:noinline
func badBatchArgs(ly, lb, k, lx, xs, ys, rows, cols int) {
	panic(fmt.Sprintf("sparse: MulBatchInto: len(y)=%d len(bias)=%d k=%d len(x)=%d xStride=%d yStride=%d for %dx%d",
		ly, lb, k, lx, xs, ys, rows, cols))
}
