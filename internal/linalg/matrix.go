// Package linalg provides the small dense linear-algebra kernel used by
// the thermal model: matrices, vectors, and LU-based linear solves.
//
// The thermal steady-state computation solves G·T = P where G is the
// thermal conductance matrix assembled from the floorplan RC network.
// G is small (tens of nodes), dense enough after package coupling, and
// diagonally dominant, so LU with partial pivoting is both simple and
// robust here.
//
//mtlint:deterministic
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// Matrix is a dense, row-major matrix of float64 values.
type Matrix struct {
	rows, cols int
	data       []float64
}

// NewMatrix returns a rows×cols zero matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("linalg: invalid dimensions %dx%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// NewMatrixFrom builds a matrix from a slice of rows. All rows must have
// equal length.
func NewMatrixFrom(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 || len(rows[0]) == 0 {
		return nil, errors.New("linalg: empty matrix literal")
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.cols {
			return nil, fmt.Errorf("linalg: ragged row %d: got %d values, want %d", i, len(r), m.cols)
		}
		copy(m.data[i*m.cols:(i+1)*m.cols], r)
	}
	return m, nil
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// Add increments the element at row i, column j by v.
func (m *Matrix) Add(i, j int, v float64) { m.data[i*m.cols+j] += v }

// Clone returns a deep copy of the matrix.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// MulVec computes y = m·x. x must have length Cols.
func (m *Matrix) MulVec(x []float64) []float64 {
	if len(x) != m.cols {
		panic(fmt.Sprintf("linalg: MulVec dimension mismatch: %d cols vs %d vector", m.cols, len(x)))
	}
	y := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = s
	}
	return y
}

// MulVecInto computes dst = m·x without allocating. dst must have
// length Rows and must not alias x. The inner product is split across
// four accumulators so the floating-point adds pipeline instead of
// forming one long dependency chain; the summation order is fixed, so
// results are deterministic.
func (m *Matrix) MulVecInto(dst, x []float64) []float64 {
	if len(x) != m.cols || len(dst) != m.rows {
		m.badMulVecIntoArgs(len(x), len(dst))
	}
	n := m.cols
	for i := 0; i < m.rows; i++ {
		row := m.data[i*n : i*n+n]
		var s0, s1, s2, s3 float64
		j := 0
		for ; j+4 <= n; j += 4 {
			s0 += row[j] * x[j]
			s1 += row[j+1] * x[j+1]
			s2 += row[j+2] * x[j+2]
			s3 += row[j+3] * x[j+3]
		}
		for ; j < n; j++ {
			s0 += row[j] * x[j]
		}
		dst[i] = (s0 + s1) + (s2 + s3)
	}
	return dst
}

// badMulVecIntoArgs formats the MulVecInto argument panics off the hot
// path: a cold, non-inlined helper keeps fmt.Sprintf and its
// allocating interface conversions out of the kernel body.
//
//go:noinline
func (m *Matrix) badMulVecIntoArgs(nx, ndst int) {
	if nx != m.cols {
		panic(fmt.Sprintf("linalg: MulVecInto dimension mismatch: %d cols vs %d vector", m.cols, nx))
	}
	panic(fmt.Sprintf("linalg: MulVecInto dst length %d, want %d rows", ndst, m.rows))
}

// Mul returns the matrix product m·b.
func (m *Matrix) Mul(b *Matrix) *Matrix {
	if m.cols != b.rows {
		panic(fmt.Sprintf("linalg: Mul dimension mismatch: %dx%d times %dx%d", m.rows, m.cols, b.rows, b.cols))
	}
	out := NewMatrix(m.rows, b.cols)
	for i := 0; i < m.rows; i++ {
		for k := 0; k < m.cols; k++ {
			a := m.At(i, k)
			if a == 0 { // exact-zero skip adds no rounding (x+0 == x)
				continue
			}
			for j := 0; j < b.cols; j++ {
				out.Add(i, j, a*b.At(k, j))
			}
		}
	}
	return out
}

// Transpose returns mᵀ.
func (m *Matrix) Transpose() *Matrix {
	t := NewMatrix(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// IsSymmetric reports whether the matrix is square and symmetric within
// the given absolute tolerance.
func (m *Matrix) IsSymmetric(tol float64) bool {
	if m.rows != m.cols {
		return false
	}
	for i := 0; i < m.rows; i++ {
		for j := i + 1; j < m.cols; j++ {
			if math.Abs(m.At(i, j)-m.At(j, i)) > tol {
				return false
			}
		}
	}
	return true
}

// MaxAbs returns the largest absolute element value.
func (m *Matrix) MaxAbs() float64 {
	var max float64
	for _, v := range m.data {
		if a := math.Abs(v); a > max {
			max = a
		}
	}
	return max
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	s := ""
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			s += fmt.Sprintf("%10.4g ", m.At(i, j))
		}
		s += "\n"
	}
	return s
}
