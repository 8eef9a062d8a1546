// Package sparse provides compressed-sparse-row matrices with
// zero-allocation mat-vec kernels, a Jacobi-preconditioned
// conjugate-gradient solver, and a Krylov (Arnoldi) matrix-exponential
// action. Together these let the thermal model's exact-ZOH step cost
// scale with the nonzero count of the RC conduction network instead of
// N², which is what makes 256-1024-node generated floorplans tractable.
//
// Like internal/linalg, this package is deliberately unit-agnostic: it
// operates on raw float64 slices and the callers own the unit
// discipline at the boundary. The kernels are deterministic by
// construction — fixed iteration orders, no maps, no wall-clock — and
// a lane's arithmetic sequence in the batched Krylov step does not
// depend on the lane count, so batched and sequential stepping are
// bit-identical.
//
//mtlint:deterministic
package sparse

import (
	"fmt"
	"math"
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
// order, starting from +0; the propagator's row-group kernel keeps
// that order per row, so it is bit-identical to this one, which stays
// as CG's mat-vec and the tests' reference.
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

// groupWidth is how many equal-length rows the row-group kernels sum
// side by side: the eight float64 lanes of one ZMM register in the
// AVX-512 kernel, and eight accumulators in its Go twin.
const groupWidth = 8

// rowGroups is the Krylov propagator's mat-vec layout of a CSR matrix,
// built once. Rows of equal length are cut into groups of groupWidth
// and their entries interleaved by position: slot p of a group holds
// the p-th stored entry of each of its rows, so one loop iteration
// advances groupWidth independent row sums. A row without
// groupWidth-1 peers of its length is left over: the longest leftover
// row is long, the others are rest, and all of them are summed from
// the CSR arrays.
type rowGroups struct {
	a      *CSR
	groups []rowGroup
	col    [][groupWidth]int32
	val    [][groupWidth]float64
	long   int32   // the longest leftover row, or -1 if none is left over
	rest   []int32 // the other leftover rows
	avx512 bool    // mulInto runs the AVX-512 kernel; false runs its Go twin
}

// rowGroup is one group: its output rows, and its slots
// col[lo:hi] and val[lo:hi]. The AVX-512 kernel reads these fields by
// offset (rowGroupLo, rowGroupHi, rowGroupSize).
type rowGroup struct {
	rows   [groupWidth]int32
	lo, hi int32
}

// newRowGroups builds the layout: rows sorted by (length, index), each
// run of equal length cut into groups of groupWidth, and the run's
// leftover rows kept for the CSR loop, the last and longest of them as
// the long row. It runs the AVX-512 kernel where the CPU has one.
func newRowGroups(a *CSR) *rowGroups {
	rowLen := func(i int32) int32 { return a.rowPtr[i+1] - a.rowPtr[i] }
	order := make([]int32, a.rows)
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(x, y int) bool {
		if lx, ly := rowLen(order[x]), rowLen(order[y]); lx != ly {
			return lx < ly
		}
		return order[x] < order[y]
	})
	g := &rowGroups{a: a, long: -1, avx512: groupKernelAVX512}
	for lo := 0; lo < len(order); {
		n := rowLen(order[lo])
		hi := lo + 1
		for hi < len(order) && rowLen(order[hi]) == n {
			hi++
		}
		full := lo + (hi-lo)/groupWidth*groupWidth
		for s := lo; s < full; s += groupWidth {
			grp := rowGroup{lo: int32(len(g.col))}
			copy(grp.rows[:], order[s:s+groupWidth])
			for p := int32(0); p < n; p++ {
				var c [groupWidth]int32
				var v [groupWidth]float64
				for r, i := range grp.rows {
					k := a.rowPtr[i] + p
					c[r], v[r] = a.colIdx[k], a.vals[k]
				}
				g.col = append(g.col, c)
				g.val = append(g.val, v)
			}
			grp.hi = int32(len(g.col))
			g.groups = append(g.groups, grp)
		}
		g.rest = append(g.rest, order[full:hi]...)
		lo = hi
	}
	if n := len(g.rest); n > 0 {
		g.long, g.rest = g.rest[n-1], g.rest[:n-1]
	}
	return g
}

// mulInto computes y = A·x, bit-identical to MulVecInto: every row
// still sums its own entries in ascending column order from +0, with
// a separate multiply and add, and only rows of equal length share a
// group, so there is no padding. Only which rows run side by side
// changes. y must not alias x.
//
//mtlint:zeroalloc
func (g *rowGroups) mulInto(y, x []float64) {
	a := g.a
	if len(y) < a.rows || len(x) < a.cols {
		badVecArgs(len(y), len(x), a.rows, a.cols)
	}
	if g.avx512 {
		g.mulAVX512(y, x)
	} else {
		g.mulGroups(y, x)
		if g.long >= 0 {
			y[g.long] = a.rowDot(g.long, x)
		}
	}
	for _, i := range g.rest {
		y[i] = a.rowDot(i, x)
	}
}

// mulAVX512 runs the groups and the long row through the AVX-512
// kernel, which takes nil for an empty slot or long-row array.
//
//mtlint:zeroalloc
func (g *rowGroups) mulAVX512(y, x []float64) {
	var (
		grp  *rowGroup
		col  *[groupWidth]int32
		val  *[groupWidth]float64
		lcol *int32
		lval *float64
		n    int32
	)
	if len(g.groups) > 0 {
		grp = &g.groups[0]
	}
	if len(g.col) > 0 {
		col, val = &g.col[0], &g.val[0]
	}
	if g.long >= 0 {
		lo := g.a.rowPtr[g.long]
		if n = g.a.rowPtr[g.long+1] - lo; n > 0 {
			lcol, lval = &g.a.colIdx[lo], &g.a.vals[lo]
		}
	}
	s := mulGroupsAVX512(grp, len(g.groups), col, val, &x[0], &y[0], lcol, lval, int(n))
	if g.long >= 0 {
		y[g.long] = s
	}
}

// mulGroups is the AVX-512 kernel's Go twin for the groups: the only
// path where the kernel is not built or the CPU lacks AVX-512F, and
// the tests' reference for it.
//
// The compiler may make either operand of a multiply or add the
// destination, and where both are NaN the destination's payload wins.
// Which one it picks for eight accumulators is up to its register
// allocator; for a loop with one accumulator, as in rowDot and
// MulVecInto, it is the accumulator and the stored value. Without a
// NaN the operand order moves no bit, and a NaN reaches the row's sum,
// so a group whose sums hold a NaN (or whose total does) is summed
// again row by row.
//
//mtlint:zeroalloc
func (g *rowGroups) mulGroups(y, x []float64) {
	for gi := range g.groups {
		grp := &g.groups[gi]
		col := g.col[grp.lo:grp.hi]
		val := g.val[grp.lo:grp.hi]
		val = val[:len(col)]
		var a0, a1, a2, a3, a4, a5, a6, a7 float64
		for p := range col {
			c, v := &col[p], &val[p]
			a0 += v[0] * x[c[0]]
			a1 += v[1] * x[c[1]]
			a2 += v[2] * x[c[2]]
			a3 += v[3] * x[c[3]]
			a4 += v[4] * x[c[4]]
			a5 += v[5] * x[c[5]]
			a6 += v[6] * x[c[6]]
			a7 += v[7] * x[c[7]]
		}
		y[grp.rows[0]] = a0
		y[grp.rows[1]] = a1
		y[grp.rows[2]] = a2
		y[grp.rows[3]] = a3
		y[grp.rows[4]] = a4
		y[grp.rows[5]] = a5
		y[grp.rows[6]] = a6
		y[grp.rows[7]] = a7
		if math.IsNaN(a0 + a1 + a2 + a3 + a4 + a5 + a6 + a7) {
			for _, i := range grp.rows {
				y[i] = g.a.rowDot(i, x)
			}
		}
	}
}

// rowDot returns row i of A·x, summed as MulVecInto sums it.
//
//mtlint:zeroalloc
func (a *CSR) rowDot(i int32, x []float64) float64 {
	var acc float64
	for k := a.rowPtr[i]; k < a.rowPtr[i+1]; k++ {
		acc += a.vals[k] * x[a.colIdx[k]]
	}
	return acc
}

// Cold-path argument panics, kept out of the zero-alloc kernel bodies
// so their formatting buffers never show up in the escape analysis of
// the hot code (same idiom as internal/linalg).

//go:noinline
func badVecArgs(ly, lx, rows, cols int) {
	panic(fmt.Sprintf("sparse: mat-vec: len(y)=%d len(x)=%d for %dx%d", ly, lx, rows, cols))
}
