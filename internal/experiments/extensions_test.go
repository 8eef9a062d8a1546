package experiments

import (
	"math"
	"strings"
	"testing"

	"multitherm/internal/core"
	"multitherm/internal/metrics"
	"multitherm/internal/units"
)

func TestExtensionRegistry(t *testing.T) {
	reg := ExtensionRegistry()
	if len(reg) != 7 {
		t.Fatalf("extension registry size %d", len(reg))
	}
	if _, err := FindExtension("hetero"); err != nil {
		t.Error(err)
	}
	if _, err := FindExtension("manycore"); err != nil {
		t.Error(err)
	}
	if _, err := FindExtension("nope"); err == nil {
		t.Error("unknown extension accepted")
	}
	// Extension names must not collide with paper artifacts.
	for _, e := range reg {
		if _, err := Find(e.Name); err == nil {
			t.Errorf("extension %s shadows a paper artifact", e.Name)
		}
	}
}

func TestPIDAblation(t *testing.T) {
	r, err := RunPIDAblation()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.PIDs) != len(r.Kds) {
		t.Fatal("result arity mismatch")
	}
	for i := range r.Kds {
		// Core of the §4.1 claim: the derivative term must not change
		// the peak temperature (emergency avoidance) materially.
		if d := math.Abs(float64(r.PIDs[i].PeakTempC - r.PI[i].PeakTempC)); d > 1.0 {
			t.Errorf("kd=%g changed peak by %.2f °C", r.Kds[i], d)
		}
		if r.PIDs[i].EverEmergent {
			t.Errorf("kd=%g breached the emergency threshold", r.Kds[i])
		}
	}
	if !strings.Contains(r.Render(), "derivative term") {
		t.Error("render missing claim context")
	}
}

func TestHeteroQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation suite")
	}
	r, err := RunHetero(quick(t))
	if err != nil {
		t.Fatal(err)
	}
	dd := core.PolicySpec{Mechanism: core.DVFS, Scope: core.Distributed}
	ho, he := r.Homo[dd], r.Het[dd]
	// Capping two cores at 0.7 on a thermally saturated chip must not
	// collapse DVFS throughput: the controllers already run near or
	// below the cap.
	if he.MeanBIPS < 0.85*ho.MeanBIPS {
		t.Errorf("hetero dist DVFS lost too much: %.2f vs %.2f", he.MeanBIPS, ho.MeanBIPS)
	}
	if r.Render() == "" {
		t.Error("empty render")
	}
}

func TestStallAblationQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation suite")
	}
	r, err := RunStallAblation(quick(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.BIPS) != 3 {
		t.Fatalf("sweep arity %d", len(r.BIPS))
	}
	// Longer stalls must not raise the duty cycle.
	if r.Duty[2] > r.Duty[0]+0.02 {
		t.Errorf("60 ms stall duty %.3f above 10 ms stall %.3f", r.Duty[2], r.Duty[0])
	}
}

func TestSetpointAblationQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation suite")
	}
	r, err := RunSetpointAblation(quick(t))
	if err != nil {
		t.Fatal(err)
	}
	// A wider margin must reduce throughput (wasted headroom) and lower
	// the worst temperature.
	if r.BIPS[2] >= r.BIPS[0] {
		t.Errorf("5 °C margin BIPS %.2f not below 1 °C margin %.2f", r.BIPS[2], r.BIPS[0])
	}
	if r.Worst[2] >= r.Worst[0] {
		t.Errorf("5 °C margin worst temp %.2f not below 1 °C margin %.2f", r.Worst[2], r.Worst[0])
	}
}

func TestManycoreQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation suite")
	}
	o := quick(t)
	o.SimTime = 0.01
	r, err := RunManycore(o)
	if err != nil {
		t.Fatal(err)
	}
	if r.Spec.Rows != 4 || r.Spec.Cols != 4 {
		t.Errorf("default grid %+v, want 4x4", r.Spec)
	}
	if !strings.Contains(r.Mode, "sparse-krylov") {
		t.Errorf("16-core grid ran in mode %q; want the sparse path", r.Mode)
	}
	if len(r.BIPS) != len(r.Specs) {
		t.Fatalf("result arity mismatch")
	}
	for i, b := range r.BIPS {
		if b <= 0 {
			t.Errorf("policy %s produced zero throughput", r.Specs[i])
		}
	}
	// The taxonomy's headline ordering must survive the scale-up.
	if r.BIPS[1] <= r.BIPS[0] {
		t.Errorf("dist DVFS %.2f did not beat stop-go %.2f on the grid", r.BIPS[1], r.BIPS[0])
	}
	if r.Render() == "" {
		t.Error("empty render")
	}
}

func TestEpochAblationQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation suite")
	}
	r, err := RunEpochAblation(quick(t))
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range r.BIPS {
		if b <= 0 {
			t.Errorf("epoch %s produced zero throughput", r.Labels[i])
		}
	}
}

// TestMultiprocConclusionFollowsRows flips each claim of the multiproc
// conclusion on hand-built rows: a clause prints only while every row
// supports it.
func TestMultiprocConclusionFollowsRows(t *testing.T) {
	const (
		all     = "The round-robin fairness rotation and the thermal policies compose:\nno starvation, no emergencies, and DVFS keeps its advantage.\n"
		still   = "The round-robin rotation did not reach every process inside the run, so starvation is untested.\n"
		unrated = still + "The thermal policies alone: no emergencies and DVFS keeps its advantage.\n"
	)
	for _, tc := range []struct {
		name string
		edit func(m *MultiprocResult)
		want string
	}{
		{"every claim holds", func(m *MultiprocResult) {}, all},
		{"a row without preemption", func(m *MultiprocResult) { m.Preemptions[2] = 0 }, unrated},
		{"a process that never ran", func(m *MultiprocResult) { m.FairnessMin[0] = 0 }, unrated},
		{"an emergency", func(m *MultiprocResult) { m.Emergency[1] = 1e-3 },
			"The round-robin fairness rotation and the thermal policies compose:\nno starvation and DVFS keeps its advantage.\n"},
		{"a DVFS row level with stop-go", func(m *MultiprocResult) { m.BIPS[2] = m.BIPS[0] },
			"The round-robin fairness rotation and the thermal policies compose:\nno starvation and no emergencies.\n"},
		{"no claim holds", func(m *MultiprocResult) { m.Preemptions[0], m.Emergency[0], m.BIPS[1] = 0, 1e-3, 1 }, still},
	} {
		m := &MultiprocResult{
			Specs: []core.PolicySpec{
				core.Baseline,
				{Mechanism: core.DVFS, Scope: core.Distributed},
				{Mechanism: core.DVFS, Scope: core.Distributed, Migration: core.SensorMigration},
			},
			BIPS:        []units.BIPS{7.4, 14.4, 14.9},
			Duty:        []units.ScaleFactor{0.45, 0.76, 0.78},
			Preemptions: []int{24, 24, 24},
			Migrations:  []int{0, 0, 2},
			FairnessMin: []float64{0.36, 0.72, 0.5},
			Worst:       []units.Celsius{83.9, 83, 83.1},
			Emergency:   []units.Seconds{0, 0, 0},
		}
		tc.edit(m)
		if got := m.Render(); !strings.HasSuffix(got, "\n"+tc.want) {
			t.Errorf("%s: render ends\n%s\nwant it to end\n%s", tc.name, got[strings.LastIndex(got, "°C"):], tc.want)
		}
	}
}

// TestHeteroConclusionFollowsRows flips each claim of the hetero
// conclusion on hand-built rows, starting from the 0.02 s golden's: a
// clause prints only while every row supports it.
func TestHeteroConclusionFollowsRows(t *testing.T) {
	const (
		lead    = "Under thermal duress, capping half the cores "
		ordered = "heterogeneity changes the operating points, not the taxonomy's ordering.\n"
	)
	specs := []core.PolicySpec{
		core.Baseline,
		{Mechanism: core.DVFS, Scope: core.Global},
		{Mechanism: core.DVFS, Scope: core.Distributed},
		{Mechanism: core.DVFS, Scope: core.Distributed, Migration: core.SensorMigration},
	}
	for _, tc := range []struct {
		name string
		het  []units.BIPS // against homogeneous 8.32, 13.22, 15.67, 16.39
		want string
	}{
		{"every claim holds", []units.BIPS{11.01, 13.65, 15.17, 15.76},
			lead + "costs the DVFS policies\n" +
				"almost nothing (their controllers already operate below the cap) and can\n" +
				"even help naive stop-go, for which the cap acts as a built-in static\n" +
				"throttle that avoids 30 ms stalls — heterogeneity changes the operating\n" +
				"points, not the taxonomy's ordering.\n"},
		{"a DVFS row keeps under 95 %", []units.BIPS{11.01, 13.65, 14.8, 15.76},
			lead + "can even help naive\n" +
				"stop-go, for which the cap acts as a built-in static throttle that\n" +
				"avoids 30 ms stalls — heterogeneity changes the operating points, not\n" +
				"the taxonomy's ordering.\n"},
		{"stop-go loses", []units.BIPS{8, 13.65, 15.17, 15.76},
			lead + "costs the DVFS policies\n" +
				"almost nothing (their controllers already operate below the cap) —\n" +
				ordered},
		{"two DVFS rows swap", []units.BIPS{11.01, 13.65, 15.8, 15.76},
			lead + "costs the DVFS policies\n" +
				"almost nothing (their controllers already operate below the cap) and can\n" +
				"even help naive stop-go, for which the cap acts as a built-in static\n" +
				"throttle that avoids 30 ms stalls — heterogeneity changes the operating\n" +
				"points and the policies' ranking by BIPS.\n"},
		{"no claim holds", []units.BIPS{8, 13.65, 15.17, 15},
			"Heterogeneity changes the operating points and the policies' ranking by\nBIPS.\n"},
	} {
		h := &HeteroResult{Specs: specs, Homo: map[core.PolicySpec]metrics.Summary{}, Het: map[core.PolicySpec]metrics.Summary{}}
		for i, spec := range specs {
			h.Homo[spec] = metrics.Summary{MeanBIPS: []units.BIPS{8.32, 13.22, 15.67, 16.39}[i]}
			h.Het[spec] = metrics.Summary{MeanBIPS: tc.het[i]}
		}
		if got := h.Render(); !strings.HasSuffix(got, "\n"+tc.want) {
			t.Errorf("%s: render ends\n%s\nwant it to end\n%s", tc.name, got[strings.LastIndex(got, "%"):], tc.want)
		}
	}
}
