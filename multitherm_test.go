package multitherm

import (
	"strings"
	"testing"
)

func TestPolicyNamesRoundTrip(t *testing.T) {
	names := PolicyNames()
	if len(names) != 12 {
		t.Fatalf("policy names = %d, want 12", len(names))
	}
	for _, n := range names {
		if _, err := PolicyByName(n); err != nil {
			t.Errorf("PolicyByName(%q): %v", n, err)
		}
	}
	if _, err := PolicyByName("overclock-everything"); err == nil {
		t.Error("unknown policy accepted")
	}
	p, err := PolicyByName("  Dist-DVFS+Sensor ")
	if err != nil {
		t.Fatalf("case/space-insensitive lookup failed: %v", err)
	}
	if p.String() != "Dist. DVFS + sensor-based migration" {
		t.Errorf("resolved to %v", p)
	}
}

func TestWorkloadAndBenchmarkLists(t *testing.T) {
	if got := len(Workloads()); got != 12 {
		t.Errorf("workloads = %d, want 12", got)
	}
	if got := len(Benchmarks()); got != 22 {
		t.Errorf("benchmarks = %d, want 22", got)
	}
}

func TestSimulateFacade(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SimTime = 0.02
	p, err := PolicyByName("dist-dvfs")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(cfg, "workload7", p)
	if err != nil {
		t.Fatal(err)
	}
	if res.BIPS() <= 0 {
		t.Error("no throughput recorded")
	}
	if res.DutyCycle() <= 0 || res.DutyCycle() > 1 {
		t.Errorf("duty cycle %v out of range", res.DutyCycle())
	}
	if _, err := Simulate(cfg, "workload99", p); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestSimulateUnthrottledFacade(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SimTime = 0.02
	res, err := SimulateUnthrottled(cfg, "workload1")
	if err != nil {
		t.Fatal(err)
	}
	if res.DutyCycle() < 0.999 {
		t.Errorf("unthrottled duty = %v", res.DutyCycle())
	}
}

func TestExperimentRegistry(t *testing.T) {
	reg := Experiments()
	if len(reg) < 14 {
		t.Fatalf("registry has %d entries", len(reg))
	}
	seen := map[string]bool{}
	for _, r := range reg {
		if seen[r.Name] {
			t.Errorf("duplicate artifact %s", r.Name)
		}
		seen[r.Name] = true
	}
	for _, want := range []string{"table1", "table5", "table8", "fig3", "fig5", "fig7", "pi"} {
		if !seen[want] {
			t.Errorf("registry missing %s", want)
		}
	}
}

func TestRunExperimentStatic(t *testing.T) {
	for _, id := range []string{"table2", "table3", "table4", "pi"} {
		res, err := RunExperiment(id, QuickExperimentOptions())
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if !strings.Contains(res.Render(), "Table") && id != "pi" {
			t.Errorf("%s render looks empty:\n%s", id, res.Render())
		}
	}
	if _, err := RunExperiment("table99", QuickExperimentOptions()); err == nil {
		t.Error("unknown artifact accepted")
	}
}

func TestSimulateTimesharedFacade(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SimTime = 0.05
	p, err := PolicyByName("dist-dvfs")
	if err != nil {
		t.Fatal(err)
	}
	res, err := SimulateTimeshared(cfg, "six", []string{"gzip", "twolf", "ammp", "lucas", "mcf", "sixtrack"}, p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.BIPS() <= 0 {
		t.Error("no throughput")
	}
	if res.Preemptions == 0 {
		t.Error("no fairness preemptions with 6 procs on 4 cores")
	}
	if _, err := SimulateTimeshared(cfg, "bad", []string{"gzip"}, p, 0); err == nil {
		t.Error("too few processes accepted")
	}
}
