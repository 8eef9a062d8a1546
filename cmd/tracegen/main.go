// Command tracegen records the activity trace of one benchmark profile,
// the kind of trace that drives the thermal/timing simulator (the
// Turandot + PowerTimer stage of the paper's Figure 2), and prints its
// summary. The simulator records the traces it runs in process, so no
// trace file format exists.
//
// Usage:
//
//	tracegen -benchmark mcf           # summarize a 3600-sample trace
//	tracegen -benchmark gzip -n 100   # summarize a shorter one
//	tracegen -list
package main

import (
	"flag"
	"fmt"
	"os"

	"multitherm/internal/floorplan"
	"multitherm/internal/trace"
	"multitherm/internal/uarch"
	"multitherm/internal/workload"
)

func main() {
	bench := flag.String("benchmark", "gzip", "benchmark profile name")
	n := flag.Int("n", 3600, "number of 100K-cycle samples (~100 ms at 3.6 GHz)")
	list := flag.Bool("list", false, "list benchmark profiles, then exit")
	flag.Parse()

	if *list {
		cfg := uarch.DefaultConfig()
		for _, name := range workload.Benchmarks() {
			p := workload.MustProfile(name)
			fmt.Printf("%-9s %-7s IPC=%.2f power-factor=%.2f\n",
				name, p.Category, uarch.AnalyticIPC(cfg, p), p.PowerFactor)
		}
		return
	}

	// ~4M samples is over an hour of simulated execution — far past any
	// sensible trace — and keeps a mistyped -n from allocating gigabytes.
	const maxSamples = 1 << 22
	if *n < 1 || *n > maxSamples {
		fatal(fmt.Errorf("tracegen: -n %d out of range [1, %d]", *n, maxSamples))
	}

	prof, err := workload.Profile(*bench)
	fatal(err)
	gen, err := uarch.NewGenerator(uarch.DefaultConfig(), prof)
	fatal(err)
	tr, err := trace.Record(gen, *n)
	fatal(err)

	fmt.Printf("benchmark:      %s (%s)\n", prof.Name, prof.Category)
	fmt.Printf("nominal IPC:    %.2f\n", gen.NominalIPC())
	fmt.Printf("samples:        %d (%.1f ms at full speed)\n", tr.Len(), tr.Duration()*1e3)
	fmt.Printf("mean instr/smp: %.0f\n", tr.MeanInstructionsPerSample())
	s := tr.At(0)
	fmt.Printf("activity[0]:    irf=%.2f fprf=%.2f fxu=%.2f fpu=%.2f l2=%.2f\n",
		s.ActivityFor(floorplan.KindIntRegFile), s.ActivityFor(floorplan.KindFPRegFile),
		s.ActivityFor(floorplan.KindFXU), s.ActivityFor(floorplan.KindFPU),
		s.ActivityFor(floorplan.KindL2))
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
