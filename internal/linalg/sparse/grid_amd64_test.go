//go:build !noasm

package sparse_test

import (
	"testing"

	"multitherm/internal/floorplan"
	"multitherm/internal/linalg"
	"multitherm/internal/linalg/sparse"
	"multitherm/internal/thermal"
)

// TestGridPropagatorTakesAVX512Kernel guards the dispatch. It builds
// a propagator on the generator pattern of the manycore extension's
// 16x16 grid (1034 nodes; -G has the pattern of A = -C⁻¹G) and checks
// that its mat-vec runs the AVX-512 kernel exactly when
// linalg.SIMDEnabled(), with the matrix's longest row, the spreader's,
// as the row beside the groups. A broken check would fall back to the
// Go twin silently: same bits, about three times the mat-vec cost.
func TestGridPropagatorTakesAVX512Kernel(t *testing.T) {
	fp, err := floorplan.Grid(floorplan.GridSpec{
		Rows: 16, Cols: 16,
		Pattern: floorplan.PatternMixedRows,
		Cooling: floorplan.CoolingEdgeBoost,
	})
	if err != nil {
		t.Fatal(err)
	}
	tmpl, err := thermal.TemplateFor(fp, thermal.FitParams(fp))
	if err != nil {
		t.Fatal(err)
	}
	g := tmpl.ConductanceMatrix()
	n := g.Rows()
	b := sparse.NewBuilder(n, n)
	longest := 0
	for i := 0; i < n; i++ {
		entries := 0
		for j := 0; j < n; j++ {
			if v := g.At(i, j); v != 0 || i == j {
				b.Add(i, j, -v)
				entries++
			}
		}
		longest = max(longest, entries)
	}
	probe := make([]float64, n)
	c := make([]float64, n)
	for i := range probe {
		probe[i] = 50 + float64(i%7)
		c[i] = 1
	}
	p, err := sparse.NewPropagator(b.Build(), 1e-4, 1e-12, probe, c)
	if err != nil {
		t.Fatal(err)
	}
	if p.MatVecAVX512() != linalg.SIMDEnabled() {
		t.Errorf("%d-node grid propagator: mat-vec AVX-512 %v, linalg.SIMDEnabled() %v", n, p.MatVecAVX512(), linalg.SIMDEnabled())
	}
	if got := p.MatVecLongRow(); got != longest {
		t.Errorf("%d-node grid propagator: long row has %d entries, the longest row %d", n, got, longest)
	}
}
