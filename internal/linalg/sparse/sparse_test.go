package sparse

import (
	"flag"
	"math"
	"math/rand"
	"runtime"
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
	lens := make([]int, rows)
	for i := range lens {
		lens[i] = menu[rng.Intn(len(menu))]
		if i == long {
			lens[i] = cols
		}
	}
	return lengthsCSR(rng, lens, cols)
}

// lengthsCSR builds a random matrix with len(lens) rows and cols
// columns whose row i stores lens[i] entries in random columns.
func lengthsCSR(rng *rand.Rand, lens []int, cols int) *CSR {
	b := NewBuilder(len(lens), cols)
	for i, n := range lens {
		for _, j := range rng.Perm(cols)[:n] {
			b.Add(i, j, rng.NormFloat64())
		}
	}
	return b.Build()
}

// specials are the values the kernels must carry bit for bit: signed
// zeros, subnormals, infinities, and quiet and signaling NaNs of both
// signs with distinct payloads, so a NaN meeting another NaN shows
// which operand's payload won.
var specials = []float64{
	0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -3 * math.SmallestNonzeroFloat64, 0x1p-1030,
	math.Inf(1), math.Inf(-1),
	math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0x7ff8000000000abc),
	math.Float64frombits(0xfff80000deadbeef), math.Float64frombits(0x7ff0000000000123),
	math.Float64frombits(0xfff4000000000077),
}

// spike replaces about one value in eight with a special one.
func spike(rng *rand.Rand, xs []float64) {
	for i := range xs {
		if rng.Intn(8) == 0 {
			xs[i] = specials[rng.Intn(len(specials))]
		}
	}
}

// spiked returns a copy of a with about one stored value in eight
// replaced by a special one.
func spiked(rng *rand.Rand, a *CSR) *CSR {
	b := a.Scaled(1)
	spike(rng, b.vals)
	return b
}

// checkRowGroups builds a's row-group layout, checks that it writes
// every row exactly once, and checks the product of both kernels, the
// AVX-512 one where the CPU has it and the Go twin, bit-identical to
// MulVecInto's: for a and for a copy carrying special values, each
// times a plain x and an x carrying special values. x and y are longer
// than the matrix, as in the propagator, where they carry the
// augmented entry; the kernels must leave y's tail alone.
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
	if g.long >= 0 {
		seen[g.long]++
		for _, i := range g.rest {
			if n := a.rowPtr[i+1] - a.rowPtr[i]; n > a.rowPtr[g.long+1]-a.rowPtr[g.long] {
				t.Fatalf("%dx%d: leftover row %d has %d entries, more than the long row %d", a.rows, a.cols, i, n, g.long)
			}
		}
	} else if len(g.rest) > 0 {
		t.Fatalf("%dx%d: %d leftover rows but no long row", a.rows, a.cols, len(g.rest))
	}
	for i, n := range seen {
		if n != 1 {
			t.Fatalf("%dx%d: row %d is in the layout %d times", a.rows, a.cols, i, n)
		}
	}
	for _, m := range []*CSR{a, spiked(rng, a)} {
		for _, spikeX := range []bool{false, true} {
			x := make([]float64, a.cols+1)
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			if spikeX {
				spike(rng, x)
			}
			want := make([]float64, a.rows)
			m.MulVecInto(want, x)
			for _, avx512 := range kernels() {
				g := newRowGroups(m)
				g.avx512 = avx512
				y := make([]float64, a.rows+1)
				y[a.rows] = 42
				g.mulInto(y, x)
				for i, w := range want {
					if math.Float64bits(y[i]) != math.Float64bits(w) && (nanOrderKept || !math.IsNaN(y[i]) || !math.IsNaN(w)) {
						t.Fatalf("%dx%d row %d (%d entries, avx512 %v): row groups %x, MulVecInto %x", a.rows, a.cols, i,
							a.rowPtr[i+1]-a.rowPtr[i], avx512, math.Float64bits(y[i]), math.Float64bits(w))
					}
				}
				if y[a.rows] != 42 {
					t.Fatalf("%dx%d (avx512 %v): the kernel wrote past row %d", a.rows, a.cols, avx512, a.rows-1)
				}
			}
		}
	}
}

// nanOrderKept reports whether MulVecInto, as this test binary
// compiled it, makes the stored value the multiply's first source and
// the accumulator the add's: where two NaNs meet, the first source's
// payload wins, so only then is MulVecInto the reference for NaN
// payloads. The compiler picks the operands as it allocates registers,
// and the instrumentation of -fuzz and -race builds, which puts calls
// in the loop, can make it pick the others; checkRowGroups then
// compares a NaN only as a NaN.
var nanOrderKept = func() bool {
	nanA := math.Float64frombits(0x7ff800000000000a)
	b := NewBuilder(1, 2)
	b.Add(0, 0, nanA)
	b.Add(0, 1, math.Float64frombits(0x7ff800000000000c))
	y := []float64{0}
	b.Build().MulVecInto(y, []float64{math.Float64frombits(0x7ff800000000000b), 1})
	return math.Float64bits(y[0]) == math.Float64bits(nanA)
}()

// raceBuild is set by race_test.go in -race builds.
var raceBuild bool

// TestNaNOrderKept fails where MulVecInto stops being the reference
// for NaN payloads, which would otherwise only loosen checkRowGroups.
// Instrumented builds are exempt: their instrumentation moves the
// order.
func TestNaNOrderKept(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("NaN operand order checked on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	if f := flag.Lookup("test.fuzz"); raceBuild || testing.CoverMode() != "" || f != nil && f.Value.String() != "" {
		t.Skip("instrumented build")
	}
	if !nanOrderKept {
		t.Fatal("MulVecInto no longer makes the stored value and the accumulator the first sources")
	}
}

// kernels lists the row-group kernels this build and CPU can run: the
// Go twin (false) and, where detected, the AVX-512 kernel (true).
func kernels() []bool {
	if groupKernelAVX512 {
		return []bool{false, true}
	}
	return []bool{false}
}

// repeat returns n copies of v followed by tail.
func repeat(v, n int, tail ...int) []int {
	out := make([]int, 0, n+len(tail))
	for i := 0; i < n; i++ {
		out = append(out, v)
	}
	return append(out, tail...)
}

// TestRowGroupsBitIdenticalToMulVec is the row-group kernels'
// contract: their product equals MulVecInto's bit for bit, whatever
// mix of grouped, leftover, empty and long rows the matrix has.
func TestRowGroupsBitIdenticalToMulVec(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, shape := range [][2]int{{1, 1}, {3, 5}, {17, 17}, {40, 40}, {64, 200}, {257, 33}} {
		checkRowGroups(t, groupedCSR(rng, shape[0], shape[1]), rng)
		a, _ := randCSR(rng, shape[0], shape[1], 0.25)
		checkRowGroups(t, a, rng)
	}
	const cols = 24
	for _, tc := range []struct {
		name string
		lens []int
	}{
		{"full groups, no leftover row", repeat(3, 2*groupWidth)},
		{"partial run", repeat(2, groupWidth+3)},
		{"empty rows among full ones", append(repeat(0, 3), repeat(4, groupWidth)...)},
		{"groups of empty rows only", repeat(0, 2*groupWidth)},
		{"zero-length long row", repeat(0, groupWidth+1, 2, 2, 2, 2, 2, 2, 2, 2)},
		{"long row outlasting the slots", repeat(1, groupWidth, cols)},
		{"long row shorter than the slots", repeat(5, 3*groupWidth, 2, 7)},
		{"lone long row", []int{cols}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkRowGroups(t, lengthsCSR(rng, tc.lens, cols), rng)
		})
	}
}

// TestRowGroupsLayout pins how rows are cut: runs of equal length
// become groups of eight in index order, each with its slot range;
// the length-2 run's two leftover rows are rest, and the single row of
// length 7, the longest leftover, is the long row.
func TestRowGroupsLayout(t *testing.T) {
	lengths := []int{2, 7, 2, 2, 3, 2, 2, 3, 3, 2, 2, 3, 3, 2, 2, 3, 3, 2, 3}
	b := NewBuilder(len(lengths), 8)
	for i, n := range lengths {
		for j := 0; j < n; j++ {
			b.Add(i, j, float64(i+j))
		}
	}
	g := newRowGroups(b.Build())
	want := []rowGroup{
		{rows: [groupWidth]int32{0, 2, 3, 5, 6, 9, 10, 13}, lo: 0, hi: 2},
		{rows: [groupWidth]int32{4, 7, 8, 11, 12, 15, 16, 18}, lo: 2, hi: 5},
	}
	if len(g.groups) != len(want) {
		t.Fatalf("groups %v, want %v", g.groups, want)
	}
	for i := range want {
		if g.groups[i] != want[i] {
			t.Fatalf("groups %v, want %v", g.groups, want)
		}
	}
	if len(g.rest) != 2 || g.rest[0] != 14 || g.rest[1] != 17 {
		t.Fatalf("rest %v, want [14 17]", g.rest)
	}
	if g.long != 1 {
		t.Fatalf("long row %d, want 1", g.long)
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
	grouped := groupedCSR(rng, 20, 20)
	x := make([]float64, 21)
	y := make([]float64, 21)
	c := make([]float64, 20)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	if n := testing.AllocsPerRun(50, func() { a.MulVecInto(y, x) }); n != 0 {
		t.Errorf("MulVecInto allocates %v per run", n)
	}
	for _, avx512 := range kernels() {
		g := newRowGroups(grouped)
		g.avx512 = avx512
		if n := testing.AllocsPerRun(50, func() { g.mulInto(y, x) }); n != 0 {
			t.Errorf("rowGroups.mulInto (avx512 %v) allocates %v per run", avx512, n)
		}
	}
	if n := testing.AllocsPerRun(50, func() { addDot(y, c, 0.5, x) }); n != 0 {
		t.Errorf("addDot allocates %v per run", n)
	}
	if n := testing.AllocsPerRun(50, func() { subDot(y, x, 1e-3, y) }); n != 0 {
		t.Errorf("subDot allocates %v per run", n)
	}
}
