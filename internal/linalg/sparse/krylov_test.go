package sparse

import (
	"math"
	"math/rand"
	"testing"

	"multitherm/internal/linalg"
)

// stableSystem builds a random diagonally dominant Hurwitz generator
// (the shape of the thermal model's A = -C⁻¹G) plus a constant term.
func stableSystem(rng *rand.Rand, n int) (*CSR, *linalg.Matrix, []float64) {
	b := NewBuilder(n, n)
	d := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		var off float64
		for _, j := range []int{i - 1, i + 1, i - 4, i + 4} {
			if j < 0 || j >= n {
				continue
			}
			v := 0.5 + rng.Float64()
			b.Add(i, j, v)
			d.Set(i, j, v)
			off += v
		}
		diag := -(off + 0.1 + rng.Float64())
		b.Add(i, i, diag)
		d.Set(i, i, diag)
	}
	c := make([]float64, n)
	for i := range c {
		c[i] = rng.NormFloat64()
	}
	return b.Build(), d, c
}

// denseAugmentedStep computes the exact step via the dense augmented
// exponential: e^{[[A·h, h·c],[0,0]]} applied to [x; 1].
func denseAugmentedStep(t *testing.T, d *linalg.Matrix, c, x []float64, h float64) []float64 {
	t.Helper()
	n := d.Rows()
	aug := linalg.NewMatrix(n+1, n+1)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			aug.Set(i, j, d.At(i, j)*h)
		}
		aug.Set(i, n, c[i]*h)
	}
	phi, err := linalg.Expm(aug)
	if err != nil {
		t.Fatal(err)
	}
	z := make([]float64, n+1)
	copy(z, x)
	z[n] = 1
	return phi.MulVec(z)
}

func TestPropagatorMatchesDenseExpm(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, tc := range []struct {
		n int
		h float64
	}{
		{n: 10, h: 0.05},  // mild step
		{n: 24, h: 0.6},   // ||A·h|| >> 1 forces substeps
		{n: 40, h: 0.002}, // thermal-like tiny step
	} {
		a, d, c := stableSystem(rng, tc.n)
		x := make([]float64, tc.n)
		for i := range x {
			x[i] = 40 + 10*rng.Float64()
		}
		p, err := NewPropagator(a, tc.h, 1e-12, x, c)
		if err != nil {
			t.Fatalf("n=%d h=%g: %v", tc.n, tc.h, err)
		}
		ws := NewWorkspace(p, 1)
		z := make([]float64, tc.n+1)
		copy(z, x)
		z[tc.n] = 1
		csub := make([]float64, tc.n)
		for i := range csub {
			csub[i] = c[i] * p.Tau()
		}
		p.AdvanceBatch(ws, z, csub, 1)
		want := denseAugmentedStep(t, d, c, x, tc.h)
		for i := 0; i < tc.n; i++ {
			if math.Abs(z[i]-want[i]) > 1e-8*(1+math.Abs(want[i])) {
				t.Errorf("n=%d h=%g: z[%d] = %.12g, dense %.12g", tc.n, tc.h, i, z[i], want[i])
			}
		}
		if z[tc.n] != 1 {
			t.Errorf("augmented entry = %g, want exactly 1", z[tc.n])
		}
	}
}

// TestPropagatorMultiStepAccuracy drives 200 consecutive steps and
// checks the trajectory against the dense propagator applied
// repeatedly: errors must stay near the per-step tolerance rather
// than compounding.
func TestPropagatorMultiStepAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n, h := 20, 0.01
	a, d, c := stableSystem(rng, n)
	x := make([]float64, n)
	for i := range x {
		x[i] = 45
	}
	p, err := NewPropagator(a, h, 1e-12, x, c)
	if err != nil {
		t.Fatal(err)
	}
	ws := NewWorkspace(p, 1)
	z := make([]float64, n+1)
	copy(z, x)
	z[n] = 1
	csub := make([]float64, n)
	for i := range csub {
		csub[i] = c[i] * p.Tau()
	}
	// Dense reference propagator for the same step.
	aug := linalg.NewMatrix(n+1, n+1)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			aug.Set(i, j, d.At(i, j)*h)
		}
		aug.Set(i, n, c[i]*h)
	}
	phi, err := linalg.Expm(aug)
	if err != nil {
		t.Fatal(err)
	}
	ref := make([]float64, n+1)
	copy(ref, x)
	ref[n] = 1
	next := make([]float64, n+1)
	for step := 0; step < 200; step++ {
		p.AdvanceBatch(ws, z, csub, 1)
		phi.MulVecInto(next, ref)
		copy(ref, next)
		ref[n] = 1
	}
	for i := 0; i < n; i++ {
		if math.Abs(z[i]-ref[i]) > 1e-7*(1+math.Abs(ref[i])) {
			t.Errorf("after 200 steps: z[%d] = %.12g, dense %.12g", i, z[i], ref[i])
		}
	}
}

// TestAdvanceBatchBitIdenticalToSequential is the lockstep contract
// the batched thermal stepper depends on: k lanes through
// AdvanceBatch equal k separate one-lane calls bit for bit.
func TestAdvanceBatchBitIdenticalToSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n, h := 30, 0.02
	a, _, c0 := stableSystem(rng, n)
	probe := make([]float64, n)
	for i := range probe {
		probe[i] = 50
	}
	p, err := NewPropagator(a, h, 1e-12, probe, c0)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{2, 3, 5, 8} {
		n1 := n + 1
		z := make([]float64, k*n1)
		c := make([]float64, k*n)
		for l := 0; l < k; l++ {
			for i := 0; i < n; i++ {
				z[l*n1+i] = 40 + rng.Float64()*20
				c[l*n+i] = rng.NormFloat64() * p.Tau()
			}
			z[l*n1+n] = 1
		}
		// Sequential copies first.
		seq := make([]float64, len(z))
		copy(seq, z)
		ws1 := NewWorkspace(p, 1)
		for l := 0; l < k; l++ {
			for step := 0; step < 5; step++ {
				p.AdvanceBatch(ws1, seq[l*n1:(l+1)*n1], c[l*n:(l+1)*n], 1)
			}
		}
		wsk := NewWorkspace(p, k)
		for step := 0; step < 5; step++ {
			p.AdvanceBatch(wsk, z, c, k)
		}
		for i := range z {
			if math.Float64bits(z[i]) != math.Float64bits(seq[i]) {
				t.Fatalf("k=%d: index %d batch %x sequential %x",
					k, i, math.Float64bits(z[i]), math.Float64bits(seq[i]))
			}
		}
	}
}

// TestPropagatorHappyBreakdown feeds a state inside a tiny invariant
// subspace: the Krylov space exhausts after two vectors and the step
// must stay finite and exact.
func TestPropagatorHappyBreakdown(t *testing.T) {
	n := 12
	b := NewBuilder(n, n)
	for i := 0; i < n; i++ {
		b.Add(i, i, -2.0) // pure decay: A = -2I
	}
	a := b.Build()
	probe := make([]float64, n)
	czero := make([]float64, n)
	for i := range probe {
		probe[i] = 1 + float64(i%3)
	}
	p, err := NewPropagator(a, 0.1, 1e-12, probe, czero)
	if err != nil {
		t.Fatal(err)
	}
	ws := NewWorkspace(p, 1)
	z := make([]float64, n+1)
	copy(z, probe)
	z[n] = 1
	csub := make([]float64, n)
	p.AdvanceBatch(ws, z, csub, 1)
	// With c = 0 the exact answer decouples: x_i(h) = x_i(0)·e^{-2h}
	// ... but the augmented entry keeps the basis 2-dimensional, so
	// this exercises breakdown at j = 2.
	decay := math.Exp(-0.2)
	for i := 0; i < n; i++ {
		want := probe[i] * decay
		if math.IsNaN(z[i]) || math.Abs(z[i]-want) > 1e-10*(1+want) {
			t.Errorf("z[%d] = %g, want %g", i, z[i], want)
		}
	}
}

func TestAdvanceAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := 25
	a, _, c0 := stableSystem(rng, n)
	probe := make([]float64, n)
	for i := range probe {
		probe[i] = 50
	}
	p, err := NewPropagator(a, 0.01, 1e-12, probe, c0)
	if err != nil {
		t.Fatal(err)
	}
	k := 4
	ws := NewWorkspace(p, k)
	z := make([]float64, k*(n+1))
	c := make([]float64, k*n)
	for l := 0; l < k; l++ {
		copy(z[l*(n+1):], probe)
		z[l*(n+1)+n] = 1
		copy(c[l*n:], c0)
	}
	if got := testing.AllocsPerRun(20, func() { p.AdvanceBatch(ws, z, c, k) }); got != 0 {
		t.Errorf("AdvanceBatch allocates %v per run", got)
	}
}
