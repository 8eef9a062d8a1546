// Command thermalsim runs one DTM policy on one workload mix and
// reports throughput, duty cycle, thermal statistics, and (optionally)
// a per-core timeline.
//
// Usage:
//
//	thermalsim -workload workload7 -policy dist-dvfs
//	thermalsim -workload workload3 -policy dist-stopgo+counter -timeline
//	thermalsim -simtime 0.1   # at least half a control period; 0 keeps 0.5 s
//	thermalsim -list
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

	"multitherm"

	"multitherm/internal/core"
	"multitherm/internal/floorplan"
	"multitherm/internal/sim"
	"multitherm/internal/units"
	"multitherm/internal/workload"
)

type floorplanKind = floorplan.UnitKind

const (
	kindInt = floorplan.KindIntRegFile
	kindFP  = floorplan.KindFPRegFile
)

func main() {
	wl := flag.String("workload", "workload7", "workload mix name (see -list)")
	policy := flag.String("policy", "dist-dvfs", "policy cell (see -list)")
	cfg := multitherm.DefaultConfig()
	minSimTime := float64(cfg.MinSimTime())
	simtime := flag.Float64("simtime", float64(cfg.SimTime), fmt.Sprintf("simulated silicon time, seconds (0 keeps the default); at least half a control period, %g s", minSimTime))
	threshold := flag.Float64("threshold", 84.2, "thermal emergency threshold, °C")
	timeline := flag.Bool("timeline", false, "print a per-core timeline every 2 ms")
	unthrottled := flag.Bool("unthrottled", false, "disable DTM (reference run)")
	list := flag.Bool("list", false, "list workloads and policies, then exit")
	showFloorplan := flag.Bool("floorplan", false, "print the die floorplan, then exit")
	flag.Parse()

	// A simulated time under half a control period runs no control
	// tick, and a negative, NaN or infinite one is no duration: refuse
	// both before the run.
	if *simtime != 0 && !(*simtime >= minSimTime && *simtime <= math.MaxFloat64) {
		fmt.Fprintf(os.Stderr, "thermalsim: -simtime %v is neither 0 (the default) nor a finite time of at least half a control period (%g s)\n", *simtime, minSimTime)
		os.Exit(2)
	}

	if *showFloorplan {
		fmt.Print(floorplan.CMP4().Render(72))
		return
	}

	if *list {
		fmt.Println("workloads:")
		for _, m := range workload.Mixes {
			fmt.Printf("  %-12s %s\n", m.Name, m.Label())
		}
		fmt.Println("policies:")
		for _, n := range multitherm.PolicyNames() {
			fmt.Printf("  %s\n", n)
		}
		return
	}

	if *simtime != 0 {
		cfg.SimTime = units.Seconds(*simtime)
	}
	cfg.Policy.ThresholdC = units.Celsius(*threshold)

	mix, err := workload.MixByName(*wl)
	fatal(err)

	var runner *sim.Runner
	var spec multitherm.Policy
	if *unthrottled {
		runner, err = sim.NewUnthrottled(cfg, mix)
		fatal(err)
	} else {
		spec, err = multitherm.PolicyByName(*policy)
		fatal(err)
		runner, err = sim.New(cfg, mix, spec)
		fatal(err)
	}

	if *timeline {
		period := cfg.Policy.SamplePeriod
		every := int64(2e-3 / period)
		fmt.Printf("%8s  %s\n", "t (ms)", strings.Join(mix.Benchmarks[:], " / "))
		runner.SetProbe(func(now units.Seconds, tick int64, temps units.TempVec, cmds []core.CoreCommand, assign []int) {
			if tick%every != 0 {
				return
			}
			line := fmt.Sprintf("%8.1f", float64(now)*1e3)
			for c := range cmds {
				state := fmt.Sprintf("%.2f", cmds[c].Scale)
				if cmds[c].Stall {
					state = "STALL"
				}
				hot := temps[cfg.Floorplan.FindCoreBlock(c, hottestKind(temps, cfg, c))]
				line += fmt.Sprintf("  | c%d=%-8s %5s %5.1f°C", c, mix.Benchmarks[assign[c]], state, hot)
			}
			fmt.Println(line)
		})
	}

	res, err := runner.Run()
	fatal(err)

	fmt.Printf("\nworkload:      %s\n", mix.Label())
	if *unthrottled {
		fmt.Printf("policy:        unthrottled (no DTM)\n")
	} else {
		fmt.Printf("policy:        %s\n", spec)
	}
	fmt.Printf("sim time:      %.3f s\n", float64(res.SimTime))
	fmt.Printf("throughput:    %.2f BIPS\n", float64(res.BIPS()))
	fmt.Printf("duty cycle:    %.1f %%\n", float64(res.DutyCycle())*100)
	fmt.Printf("max temp:      %.2f °C (threshold %.1f)\n", float64(res.MaxTempC), *threshold)
	fmt.Printf("emergencies:   %.2f ms above threshold\n", float64(res.EmergencySeconds)*1e3)
	fmt.Printf("stall time:    %.1f ms\n", float64(res.StallSeconds)*1e3)
	fmt.Printf("penalty time:  %.2f ms (PLL transitions: %d)\n", float64(res.PenaltySeconds)*1e3, res.Transitions)
	fmt.Printf("migrations:    %d\n", res.Migrations)
}

// hottestKind picks the hotter register file of core c for display.
func hottestKind(temps units.TempVec, cfg sim.Config, c int) (k floorplanKind) {
	irf := cfg.Floorplan.FindCoreBlock(c, kindInt)
	fprf := cfg.Floorplan.FindCoreBlock(c, kindFP)
	if temps[irf] >= temps[fprf] {
		return kindInt
	}
	return kindFP
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
