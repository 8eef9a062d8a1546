package linalg_test

import (
	"testing"

	"multitherm/internal/floorplan"
	"multitherm/internal/linalg"
	"multitherm/internal/power"
	"multitherm/internal/units"
)

// TestExpKernelTakesLeakageExponents runs the leakage exponents
// β(T−T0) of CMP4 (45 blocks) and the 16x16 grid (1024 blocks), at
// block temperatures from 40 to 120 °C, through ExpInto. Where the exp
// kernel is available not one element may fall back to math.Exp: a
// domain check that rejected good inputs would keep every result
// bit-identical and only lose the vector speed-up, so this count is
// what catches it.
func TestExpKernelTakesLeakageExponents(t *testing.T) {
	grid, err := floorplan.Grid(floorplan.GridSpec{Rows: 16, Cols: 16})
	if err != nil {
		t.Fatal(err)
	}
	cfg := power.DefaultConfig()
	for _, fp := range []*floorplan.Floorplan{floorplan.CMP4(), grid} {
		n := len(fp.Blocks)
		x := make([]float64, n)
		for i := range x {
			temp := units.Celsius(40 + 80*float64(i)/float64(n-1))
			x[i] = cfg.LeakageBeta * float64(temp-cfg.LeakageT0)
		}
		want := 0
		if !linalg.ExpKernelAvailable() {
			want = n
		}
		if got := linalg.ExpIntoFallback(make([]float64, n), x); got != want {
			t.Errorf("%s: %d of %d leakage exponents fell back to math.Exp, want %d (exp kernel available: %v)",
				fp.Name, got, n, want, linalg.ExpKernelAvailable())
		}
	}
}
