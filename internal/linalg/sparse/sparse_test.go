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

// groupedCSR builds a random rows x cols matrix shaped for the
// row-group layout: row lengths come from a menu of three short
// lengths, one of them zero, so equal-length runs fill groups and
// leave leftover and empty rows, and one row stores every column, far
// longer than the rest (the shape of the thermal network's spreader
// row).
func groupedCSR(rng *rand.Rand, rows, cols int) *CSR {
	short := 1 + cols/8
	menu := [3]int{0, 1 + rng.Intn(short), 1 + rng.Intn(short)}
	long := rng.Intn(rows)
	b := NewBuilder(rows, cols)
	for i := 0; i < rows; i++ {
		n := menu[rng.Intn(len(menu))]
		if i == long {
			n = cols
		}
		for _, j := range rng.Perm(cols)[:n] {
			b.Add(i, j, rng.NormFloat64())
		}
	}
	return b.Build()
}

// checkRowGroups builds a's row-group layout, checks that it writes
// every row exactly once, and checks its product bit-identical to
// MulVecInto's. x and y are longer than the matrix, as in the
// propagator, where they carry the augmented entry; the kernel must
// leave y's tail alone.
func checkRowGroups(t *testing.T, a *CSR, rng *rand.Rand) {
	t.Helper()
	g := newRowGroups(a)
	seen := make([]int, a.rows)
	for _, grp := range g.groups {
		for _, i := range grp.rows {
			seen[i]++
		}
	}
	for _, i := range g.rest {
		seen[i]++
	}
	for i, n := range seen {
		if n != 1 {
			t.Fatalf("%dx%d: row %d is in the layout %d times", a.rows, a.cols, i, n)
		}
	}
	x := make([]float64, a.cols+1)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	want := make([]float64, a.rows)
	a.MulVecInto(want, x)
	y := make([]float64, a.rows+1)
	y[a.rows] = 42
	g.mulInto(y, x)
	for i, w := range want {
		if math.Float64bits(y[i]) != math.Float64bits(w) {
			t.Fatalf("%dx%d row %d (%d entries): row groups %x, MulVecInto %x", a.rows, a.cols, i,
				a.rowPtr[i+1]-a.rowPtr[i], math.Float64bits(y[i]), math.Float64bits(w))
		}
	}
	if y[a.rows] != 42 {
		t.Fatalf("%dx%d: the kernel wrote past row %d", a.rows, a.cols, a.rows-1)
	}
}

// TestRowGroupsBitIdenticalToMulVec is the row-group kernel's
// contract: its product equals MulVecInto's bit for bit, whatever mix
// of grouped, leftover, empty and long rows the matrix has.
func TestRowGroupsBitIdenticalToMulVec(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, shape := range [][2]int{{1, 1}, {3, 5}, {17, 17}, {40, 40}, {64, 200}, {257, 33}} {
		checkRowGroups(t, groupedCSR(rng, shape[0], shape[1]), rng)
		a, _ := randCSR(rng, shape[0], shape[1], 0.25)
		checkRowGroups(t, a, rng)
	}
}

// TestRowGroupsLayout pins how rows are cut: runs of equal length
// become groups of four in index order, and each run's remainder,
// here one row of length 2 and the single row of length 3, stays on
// the CSR loop.
func TestRowGroupsLayout(t *testing.T) {
	lengths := []int{2, 3, 2, 2, 2, 2, 0, 0, 0, 0, 2, 2, 2, 2}
	b := NewBuilder(len(lengths), 4)
	for i, n := range lengths {
		for j := 0; j < n; j++ {
			b.Add(i, j, float64(i+j))
		}
	}
	g := newRowGroups(b.Build())
	var got [][groupWidth]int32
	for _, grp := range g.groups {
		got = append(got, grp.rows)
	}
	want := [][groupWidth]int32{{6, 7, 8, 9}, {0, 2, 3, 4}, {5, 10, 11, 12}}
	if len(got) != len(want) {
		t.Fatalf("groups %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("groups %v, want %v", got, want)
		}
	}
	if len(g.rest) != 2 || g.rest[0] != 13 || g.rest[1] != 1 {
		t.Fatalf("rest %v, want [13 1]", g.rest)
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
	g := newRowGroups(groupedCSR(rng, 20, 20))
	x := make([]float64, 21)
	y := make([]float64, 21)
	c := make([]float64, 20)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	if n := testing.AllocsPerRun(50, func() { a.MulVecInto(y, x) }); n != 0 {
		t.Errorf("MulVecInto allocates %v per run", n)
	}
	if n := testing.AllocsPerRun(50, func() { g.mulInto(y, x) }); n != 0 {
		t.Errorf("rowGroups.mulInto allocates %v per run", n)
	}
	if n := testing.AllocsPerRun(50, func() { addDot(y, c, 0.5, x) }); n != 0 {
		t.Errorf("addDot allocates %v per run", n)
	}
	if n := testing.AllocsPerRun(50, func() { subDot(y, x, 1e-3, y) }); n != 0 {
		t.Errorf("subDot allocates %v per run", n)
	}
}
