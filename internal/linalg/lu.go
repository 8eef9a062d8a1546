package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a matrix is numerically singular and
// cannot be factored or solved.
var ErrSingular = errors.New("linalg: matrix is singular")

// LU holds an LU factorization with partial pivoting: P·A = L·U.
// It can be reused to solve against many right-hand sides, which the
// thermal model exploits when computing steady states for several power
// inputs over the same conductance matrix.
type LU struct {
	n    int
	lu   []float64 // packed L (unit diagonal, below) and U (on/above diagonal)
	piv  []int     // row permutation
	sign int       // permutation parity, for determinant
}

// Factor computes the LU factorization of the square matrix a.
func Factor(a *Matrix) (*LU, error) {
	if a.Rows() != a.Cols() {
		return nil, fmt.Errorf("linalg: cannot factor %dx%d non-square matrix", a.Rows(), a.Cols())
	}
	n := a.Rows()
	f := &LU{n: n, lu: make([]float64, n*n), piv: make([]int, n), sign: 1}
	copy(f.lu, a.data)
	for i := range f.piv {
		f.piv[i] = i
	}
	for k := 0; k < n; k++ {
		// Partial pivot: pick the largest magnitude in column k at or
		// below the diagonal.
		p, maxAbs := k, math.Abs(f.lu[k*n+k])
		for i := k + 1; i < n; i++ {
			if a := math.Abs(f.lu[i*n+k]); a > maxAbs {
				p, maxAbs = i, a
			}
		}
		if maxAbs == 0 {
			return nil, ErrSingular
		}
		if p != k {
			for j := 0; j < n; j++ {
				f.lu[p*n+j], f.lu[k*n+j] = f.lu[k*n+j], f.lu[p*n+j]
			}
			f.piv[p], f.piv[k] = f.piv[k], f.piv[p]
			f.sign = -f.sign
		}
		pivot := f.lu[k*n+k]
		for i := k + 1; i < n; i++ {
			m := f.lu[i*n+k] / pivot
			f.lu[i*n+k] = m
			if m == 0 { // exact-zero multiplier skip is bit-effect-free
				continue
			}
			for j := k + 1; j < n; j++ {
				f.lu[i*n+j] -= m * f.lu[k*n+j]
			}
		}
	}
	return f, nil
}

// Solve returns x such that A·x = b for the factored matrix A.
func (f *LU) Solve(b []float64) ([]float64, error) {
	if len(b) != f.n {
		return nil, fmt.Errorf("linalg: rhs length %d does not match matrix order %d", len(b), f.n)
	}
	n := f.n
	x := make([]float64, n)
	// Apply permutation, then forward-substitute through L.
	for i := 0; i < n; i++ {
		s := b[f.piv[i]]
		for j := 0; j < i; j++ {
			s -= f.lu[i*n+j] * x[j]
		}
		x[i] = s
	}
	// Back-substitute through U.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= f.lu[i*n+j] * x[j]
		}
		d := f.lu[i*n+i]
		if d == 0 {
			return nil, ErrSingular
		}
		x[i] = s / d
	}
	return x, nil
}

// SolveMatrix solves A·X = B column by column for the factored matrix
// A, returning X. Expm uses it to apply the inverted Padé denominator.
func (f *LU) SolveMatrix(b *Matrix) (*Matrix, error) {
	if b.rows != f.n {
		return nil, fmt.Errorf("linalg: rhs has %d rows, matrix order %d", b.rows, f.n)
	}
	x := NewMatrix(b.rows, b.cols)
	col := make([]float64, b.rows)
	for j := 0; j < b.cols; j++ {
		for i := 0; i < b.rows; i++ {
			col[i] = b.At(i, j)
		}
		sol, err := f.Solve(col)
		if err != nil {
			return nil, err
		}
		for i, v := range sol {
			x.Set(i, j, v)
		}
	}
	return x, nil
}

// Det returns the determinant of the factored matrix.
func (f *LU) Det() float64 {
	d := float64(f.sign)
	for i := 0; i < f.n; i++ {
		d *= f.lu[i*f.n+i]
	}
	return d
}

// Solve solves A·x = b directly (factor + solve in one call).
func Solve(a *Matrix, b []float64) ([]float64, error) {
	f, err := Factor(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b)
}

// Residual returns the max-norm of A·x − b, used by tests and by the
// thermal model's self-checks.
func Residual(a *Matrix, x, b []float64) float64 {
	ax := a.MulVec(x)
	var max float64
	for i := range ax {
		if r := math.Abs(ax[i] - b[i]); r > max {
			max = r
		}
	}
	return max
}
