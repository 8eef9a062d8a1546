// Command sweep reproduces the paper's evaluation: every table and
// figure, printed with the published values alongside for comparison.
//
// Usage:
//
//	sweep                 # reproduce everything at full fidelity (0.5 s sims)
//	sweep -only table5    # one artifact
//	sweep -quick          # reduced fidelity (0.1 s sims) for a fast look
//	sweep -list           # list artifacts
//	sweep -simtime 0.25   # custom simulated silicon time
//	sweep -workers 8      # fan (policy, workload) cells across 8 workers
//	sweep -floorplan 16x16 -only manycore   # 256-core generated grid
//
// Stdout carries only the report, so two runs' outputs compare with
// cmp; per-artifact and total wall-clock times go to stderr. Cells
// sharing one thermal propagator step in lockstep batches of up to
// sim.DefaultBatchSize lanes; results are identical at any worker
// count.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"multitherm/internal/experiments"
	"multitherm/internal/floorplan"
	"multitherm/internal/parallel"
	"multitherm/internal/units"
)

func main() {
	only := flag.String("only", "", "reproduce a single artifact (e.g. table5, fig3)")
	quick := flag.Bool("quick", false, "reduced-fidelity simulations")
	list := flag.Bool("list", false, "list reproducible artifacts and exit")
	simtime := flag.Float64("simtime", 0, "simulated silicon time per run in seconds (default 0.5)")
	workersFlag := flag.Int("workers", 0, "worker count for the cell scheduler (0 = all CPUs, 1 = sequential; results identical at any count)")
	ablations := flag.Bool("ablations", false, "also run the beyond-the-paper extension/ablation artifacts")
	gridFlag := flag.String("floorplan", "", "generated grid for the manycore artifact, as RxC (e.g. 16x16 for 256 cores)")
	mdPath := flag.String("md", "", "also write the report as markdown to this file")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile (taken at exit) to this file")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile reflects live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}()
	}

	if *list {
		for _, r := range experiments.Registry() {
			fmt.Printf("%-18s %s\n", r.Name, r.Desc)
		}
		for _, r := range experiments.ExtensionRegistry() {
			fmt.Printf("%-18s %s (extension)\n", r.Name, r.Desc)
		}
		return
	}

	opt := experiments.DefaultOptions()
	if *quick {
		opt = experiments.QuickOptions()
	}
	if *simtime > 0 {
		opt.SimTime = units.Seconds(*simtime)
	}
	opt.Parallelism = *workersFlag
	if *gridFlag != "" {
		spec, err := floorplan.ParseGridSpec(*gridFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		opt.Grid = spec
		if *only == "" {
			*only = "manycore"
		}
	}

	runners := experiments.Registry()
	if *ablations {
		runners = append(runners, experiments.ExtensionRegistry()...)
	}
	if *only != "" {
		r, err := experiments.Find(*only)
		if err != nil {
			if ext, extErr := experiments.FindExtension(*only); extErr == nil {
				r, err = ext, nil
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		runners = []experiments.Runner{r}
	}

	var md *os.File
	if *mdPath != "" {
		var err error
		md, err = os.Create(*mdPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer md.Close()
		fmt.Fprintf(md, "# multitherm reproduction report\n\nSimulated silicon time per run: %.2f s.\n\n", float64(opt.SimTime))
	}

	workers := parallel.Workers(*workersFlag)
	total := time.Now()
	for _, r := range runners {
		start := time.Now()
		res, err := r.Run(opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", r.Name, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "%s: %.1fs\n", r.Name, time.Since(start).Seconds())
		fmt.Printf("==> %s: %s\n\n", r.Name, r.Desc)
		fmt.Println(res.Render())
		if md != nil {
			fmt.Fprintf(md, "## %s — %s\n\n```text\n%s```\n\n", r.Name, r.Desc, res.Render())
		}
	}
	fmt.Fprintf(os.Stderr, "total wall clock: %.1fs (%d workers)\n", time.Since(total).Seconds(), workers)
}
