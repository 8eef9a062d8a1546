// Controller design: walk through the paper's §4 formal-control flow
// using the control substrate — design a PI controller, discretize it
// (reproducing the paper's published difference equation), prove
// closed-loop stability, and exercise the hardware-style runtime with
// clipping and anti-windup against a toy hotspot.
package main

import (
	"fmt"

	"multitherm/internal/control"
	"multitherm/internal/units"
)

func main() {
	// 1. The continuous design: G(s) = Kp + Ki/s with the paper's gains.
	pi := control.PI(control.PaperKp, control.PaperKi)
	fmt.Printf("continuous controller: %v\n", pi)

	// 2. Discretize at the 100K-cycle sample period (the paper's c2d).
	law := control.C2DPI(control.PaperKp, control.PaperKi,
		control.PaperSamplePeriod, control.ForwardEuler)
	fmt.Printf("discrete law: u[n] = u[n-1] %+.4f·e[n] %+.6f·e[n-1]\n", law.B0, law.B1)
	fmt.Println("paper:        u[n] = u[n-1] -0.0107·e[n] +0.003796·e[n-1]")

	// 3. Stability: all closed-loop poles must lie left of the jω axis
	//    (continuous) and inside the unit circle (discrete).
	plant := control.FirstOrderPlant(12, 25e-3) // 12 °C authority, 25 ms hotspot
	loop := pi.Series(plant).Feedback()
	fmt.Printf("\nclosed-loop poles: %v\n", loop.Poles())
	fmt.Printf("stable: %v, stability margin: %.1f rad/s, settling: %.1f ms\n",
		loop.IsStable(), loop.StabilityMargin(), float64(loop.SettlingTime())*1e3)

	pn, pd := control.DiscretizePlantZOH(12, 25e-3, control.PaperSamplePeriod)
	fmt.Printf("discrete loop stable: %v\n", law.ClosedLoopStableZ(pn, pd))

	// 4. Root locus: robustness across two decades of gain.
	fmt.Println("\nroot locus (gain multiplier -> dominant pole real part):")
	for _, pt := range pi.Series(plant).RootLocus([]float64{0.1, 0.3, 1, 3, 10}) {
		worst := 0.0
		for _, p := range pt.Poles {
			if real(p) > worst || worst == 0 { // zero means no pole seen yet
				worst = real(p)
			}
		}
		fmt.Printf("  k=%5.1f  re(dominant pole) = %8.1f\n", pt.Gain, worst)
	}

	// 5. The runtime: drive a simulated hotspot to the 81.8 °C setpoint.
	rt := control.NewPaperPIRuntime(81.8)
	temp := 60.0
	fmt.Println("\nruntime against a cubic-power hotspot (target 81.8 °C):")
	for step := 0; step < 150000; step++ {
		u := float64(rt.Step(units.Celsius(temp)))
		eq := 45 + 52*u*u*u // equilibrium for the applied scale
		temp += (eq - temp) * float64(control.PaperSamplePeriod) / 25e-3
		if step%30000 == 0 {
			fmt.Printf("  t=%6.0f ms  temp=%6.2f °C  scale=%.3f\n",
				float64(step)*float64(control.PaperSamplePeriod)*1e3, temp, u)
		}
	}
	fmt.Printf("  settled: temp=%.2f °C, scale=%.3f, trend=%+v\n",
		temp, rt.Output(), rt.Trend())
}
