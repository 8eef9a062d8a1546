package sparse

import (
	"math"
	"math/rand"
	"testing"

	"multitherm/internal/linalg"
)

// randCSR builds a random rows x cols matrix at the given fill
// fraction, returning both the CSR and the equivalent dense matrix.
func randCSR(rng *rand.Rand, rows, cols int, fill float64) (*CSR, *linalg.Matrix) {
	b := NewBuilder(rows, cols)
	d := linalg.NewMatrix(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.Float64() < fill {
				v := rng.NormFloat64()
				b.Add(i, j, v)
				d.Set(i, j, v)
			}
		}
	}
	return b.Build(), d
}

func TestBuilderSortsAndSumsDuplicates(t *testing.T) {
	b := NewBuilder(3, 3)
	b.Add(2, 1, 1.5)
	b.Add(0, 2, 3.0)
	b.Add(2, 1, 0.5)
	b.Add(0, 0, -1.0)
	a := b.Build()
	if got := a.NNZ(); got != 3 {
		t.Fatalf("NNZ = %d, want 3 (duplicates summed)", got)
	}
	if got := a.At(2, 1); got != 2.0 {
		t.Errorf("At(2,1) = %g, want 2 (1.5 + 0.5)", got)
	}
	if got := a.At(0, 2); got != 3.0 {
		t.Errorf("At(0,2) = %g, want 3", got)
	}
	if got := a.At(1, 1); got != 0.0 {
		t.Errorf("At(1,1) = %g, want 0 (absent)", got)
	}
	// Columns sorted within each row.
	for i := 0; i < a.rows; i++ {
		for k := a.rowPtr[i] + 1; k < a.rowPtr[i+1]; k++ {
			if a.colIdx[k] <= a.colIdx[k-1] {
				t.Fatalf("row %d columns not strictly ascending", i)
			}
		}
	}
}

func TestMulVecMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, shape := range [][2]int{{1, 1}, {5, 5}, {13, 7}, {40, 40}} {
		a, d := randCSR(rng, shape[0], shape[1], 0.3)
		x := make([]float64, shape[1])
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		y := make([]float64, shape[0])
		a.MulVecInto(y, x)
		want := d.MulVec(x)
		for i := range y {
			if math.Abs(y[i]-want[i]) > 1e-12*(1+math.Abs(want[i])) {
				t.Errorf("%dx%d: y[%d] = %g, dense %g", shape[0], shape[1], i, y[i], want[i])
			}
		}
	}
}

func TestMulAddInto(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a, d := randCSR(rng, 9, 9, 0.4)
	x := make([]float64, 9)
	bias := make([]float64, 9)
	for i := range x {
		x[i] = rng.NormFloat64()
		bias[i] = rng.NormFloat64()
	}
	y := make([]float64, 9)
	a.MulAddInto(y, bias, x)
	want := d.MulVec(x)
	for i := range y {
		if math.Abs(y[i]-(want[i]+bias[i])) > 1e-12 {
			t.Errorf("y[%d] = %g, want %g", i, y[i], want[i]+bias[i])
		}
	}
}

// TestMulBatchBitIdenticalToMulVec is the batch contract: k lanes
// through MulBatchInto must equal k separate MulVecInto calls bitwise,
// at every lane position within the 4-wide blocking.
func TestMulBatchBitIdenticalToMulVec(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a, _ := randCSR(rng, 17, 17, 0.25)
	for _, k := range []int{1, 2, 3, 4, 5, 8, 11} {
		xs, ys := 19, 23 // strides deliberately larger than the dimension
		x := make([]float64, k*xs)
		bias := make([]float64, k*ys)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		for i := range bias {
			bias[i] = rng.NormFloat64()
		}
		y := make([]float64, k*ys)
		a.MulBatchInto(y, bias, k, x, xs, ys)
		single := make([]float64, 17)
		for l := 0; l < k; l++ {
			a.MulAddInto(single, bias[l*ys:l*ys+17], x[l*xs:l*xs+17])
			for i := 0; i < 17; i++ {
				if math.Float64bits(y[l*ys+i]) != math.Float64bits(single[i]) {
					t.Fatalf("k=%d lane %d row %d: batch %x, single %x",
						k, l, i, math.Float64bits(y[l*ys+i]), math.Float64bits(single[i]))
				}
			}
		}
	}
	// And without bias.
	k := 6
	x := make([]float64, k*17)
	y := make([]float64, k*17)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	a.MulBatchInto(y, nil, k, x, 17, 17)
	single := make([]float64, 17)
	for l := 0; l < k; l++ {
		a.MulVecInto(single, x[l*17:(l+1)*17])
		for i := 0; i < 17; i++ {
			if math.Float64bits(y[l*17+i]) != math.Float64bits(single[i]) {
				t.Fatalf("nil bias: lane %d row %d differ", l, i)
			}
		}
	}
}

func TestNorm1MatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a, d := randCSR(rng, 12, 12, 0.3)
	if got, want := a.Norm1(), d.Norm1(); math.Abs(got-want) > 1e-12 {
		t.Errorf("Norm1 = %g, dense %g", got, want)
	}
}

func TestSolveCGMatchesDenseLU(t *testing.T) {
	// SPD Laplacian-plus-diagonal system, the thermal G shape.
	n := 30
	b := NewBuilder(n, n)
	d := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		diag := 0.5 + 0.01*float64(i%7)
		if i > 0 {
			b.Add(i, i-1, -1)
			d.Set(i, i-1, -1)
			diag++
		}
		if i < n-1 {
			b.Add(i, i+1, -1)
			d.Set(i, i+1, -1)
			diag++
		}
		b.Add(i, i, diag)
		d.Set(i, i, diag)
	}
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = 1 + 0.3*float64(i%4)
	}
	got, err := SolveCG(b.Build(), rhs, 1e-13, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := linalg.Solve(d, rhs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-8*(1+math.Abs(want[i])) {
			t.Errorf("x[%d] = %g, LU %g", i, got[i], want[i])
		}
	}
}

func TestSolveCGRejectsIndefinite(t *testing.T) {
	b := NewBuilder(2, 2)
	b.Add(0, 0, 1)
	b.Add(1, 1, -1)
	if _, err := SolveCG(b.Build(), []float64{1, 1}, 1e-10, 0); err == nil {
		t.Fatal("no error for an indefinite matrix")
	}
}

// TestKernelsAllocationFree backs the //mtlint:zeroalloc annotations
// with a runtime check.
func TestKernelsAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a, _ := randCSR(rng, 20, 20, 0.3)
	x := make([]float64, 4*20)
	y := make([]float64, 4*20)
	bias := make([]float64, 4*20)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	if n := testing.AllocsPerRun(50, func() { a.MulVecInto(y, x) }); n != 0 {
		t.Errorf("MulVecInto allocates %v per run", n)
	}
	if n := testing.AllocsPerRun(50, func() { a.MulAddInto(y, bias, x) }); n != 0 {
		t.Errorf("MulAddInto allocates %v per run", n)
	}
	if n := testing.AllocsPerRun(50, func() { a.MulBatchInto(y, bias, 4, x, 20, 20) }); n != 0 {
		t.Errorf("MulBatchInto allocates %v per run", n)
	}
}
