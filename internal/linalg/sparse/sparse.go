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

// groupWidth is how many equal-length rows the row-group kernel sums
// side by side; mulInto spells out that many accumulators.
const groupWidth = 4

// rowGroups is the Krylov propagator's mat-vec layout of a CSR matrix,
// built once. Rows of equal length are cut into groups of groupWidth
// and their entries interleaved by position: slot p of a group holds
// the p-th stored entry of each of its rows, so one loop iteration
// advances groupWidth independent row sums. A row without
// groupWidth-1 peers of its length stays on the CSR loop (rest).
type rowGroups struct {
	a      *CSR
	groups []rowGroup
	col    [][groupWidth]int32
	val    [][groupWidth]float64
	rest   []int32
}

// rowGroup is one group: its output rows, and its slots
// col[lo:hi] and val[lo:hi].
type rowGroup struct {
	rows   [groupWidth]int32
	lo, hi int32
}

// newRowGroups builds the layout: rows sorted by (length, index), each
// run of equal length cut into groups of groupWidth, and the run's
// leftover rows kept for the CSR loop.
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
	g := &rowGroups{a: a}
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
	return g
}

// mulInto computes y = A·x, bit-identical to MulVecInto: every row
// still sums its own entries in ascending column order from +0, and
// only rows of equal length share a group, so there is no padding.
// Only which rows run side by side changes. y must not alias x.
//
//mtlint:zeroalloc
func (g *rowGroups) mulInto(y, x []float64) {
	a := g.a
	if len(y) < a.rows || len(x) < a.cols {
		badVecArgs(len(y), len(x), a.rows, a.cols)
	}
	for gi := range g.groups {
		grp := &g.groups[gi]
		col := g.col[grp.lo:grp.hi]
		val := g.val[grp.lo:grp.hi]
		val = val[:len(col)]
		var a0, a1, a2, a3 float64
		for p := range col {
			c, v := &col[p], &val[p]
			a0 += v[0] * x[c[0]]
			a1 += v[1] * x[c[1]]
			a2 += v[2] * x[c[2]]
			a3 += v[3] * x[c[3]]
		}
		y[grp.rows[0]] = a0
		y[grp.rows[1]] = a1
		y[grp.rows[2]] = a2
		y[grp.rows[3]] = a3
	}
	rowPtr, colIdx, vals := a.rowPtr, a.colIdx, a.vals
	for _, i := range g.rest {
		var acc float64
		for k := rowPtr[i]; k < rowPtr[i+1]; k++ {
			acc += vals[k] * x[colIdx[k]]
		}
		y[i] = acc
	}
}

// Cold-path argument panics, kept out of the zero-alloc kernel bodies
// so their formatting buffers never show up in the escape analysis of
// the hot code (same idiom as internal/linalg).

//go:noinline
func badVecArgs(ly, lx, rows, cols int) {
	panic(fmt.Sprintf("sparse: mat-vec: len(y)=%d len(x)=%d for %dx%d", ly, lx, rows, cols))
}
