package experiments

import (
	"fmt"
	"math"
	"testing"

	"multitherm/internal/thermal"
	"multitherm/internal/workload"
)

// TestBaniasExactStepMatchesRK4 walks every Table 1b ranging row twice,
// once on a model armed with the exact ZOH step at rangeStep and once
// on RK4, and requires the two walks to agree: within 1e-4 °C on the
// unquantized diode min/max, within 1e-3 °C on the final block
// temperatures, and exactly on the printed (1 °C quantized) range. The
// diode's readings agree to 6.1e-6 °C; a small block's temperature
// carries more of RK4's truncation error on its fast modes (bzip2's
// bpred ends 4.0e-4 °C apart). The final temperatures must also differ
// in some bit, so a model left unarmed, or armed at a step Step never
// takes, fails instead of comparing RK4 with itself.
// UseExact works in the noasm build too, so both builds check the
// pairing even though only SIMD hosts take the exact step in RunTable1.
func TestBaniasExactStepMatchesRK4(t *testing.T) {
	rig, err := newBaniasRig()
	if err != nil {
		t.Fatal(err)
	}
	_, calc, err := rig.calibrate()
	if err != nil {
		t.Fatal(err)
	}
	diode := &rig.diode.Sensors[0]
	q := diode.Quantization
	for _, row := range workload.Table1Ranging {
		t.Run(row.Name, func(t *testing.T) {
			// walk returns the row's min/max and final block temperatures
			// at the diode's current quantization.
			walk := func(exact bool) (min, max float64, final []float64) {
				m, err := thermal.New(rig.fp, rig.tp)
				if err != nil {
					t.Fatal(err)
				}
				if exact {
					if err := m.UseExact(rangeStep); err != nil {
						t.Fatal(err)
					}
				}
				min, max, err = rig.rangeOf(m, calc, row.Name)
				if err != nil {
					t.Fatal(err)
				}
				return min, max, m.BlockTemps(nil)
			}

			diode.Quantization = 0
			rMin, rMax, rT := walk(false)
			eMin, eMax, eT := walk(true)
			diode.Quantization = q
			if math.Abs(eMin-rMin) > 1e-4 || math.Abs(eMax-rMax) > 1e-4 {
				t.Errorf("unquantized range: exact %.6f-%.6f, RK4 %.6f-%.6f", eMin, eMax, rMin, rMax)
			}
			differ := false
			for i := range rT {
				if math.Abs(eT[i]-rT[i]) > 1e-3 {
					t.Errorf("final %s: exact %.6f °C, RK4 %.6f °C", rig.fp.Blocks[i].Name, eT[i], rT[i])
				}
				differ = differ || math.Float64bits(eT[i]) != math.Float64bits(rT[i])
			}
			if !differ {
				t.Error("exact and RK4 walks end bit-identical: the exact step never ran")
			}

			rMin, rMax, _ = walk(false)
			eMin, eMax, _ = walk(true)
			if e, r := fmt.Sprintf("%.0f-%.0f", eMin, eMax), fmt.Sprintf("%.0f-%.0f", rMin, rMax); e != r {
				t.Errorf("printed range: exact %s, RK4 %s", e, r)
			}
		})
	}
}
