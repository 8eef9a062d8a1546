package experiments

import (
	"slices"
	"strings"
	"testing"

	"multitherm/internal/core"
	"multitherm/internal/sim"
	"multitherm/internal/workload"
)

// quick returns fast options over a reduced workload subset that still
// spans the mix spectrum (IIII, IIFF, IFFF).
func quick(t testing.TB) Options {
	t.Helper()
	o := QuickOptions()
	for _, n := range []string{"workload1", "workload7", "workload10"} {
		m, err := workload.MixByName(n)
		if err != nil {
			t.Fatal(err)
		}
		o.Workloads = append(o.Workloads, m)
	}
	return o
}

// TestCutBatches pins the batch cut runCells makes: consecutive cells
// in group order, no batch wider than the given width, and each
// group spread over every worker.
func TestCutBatches(t *testing.T) {
	seq := func(from, n int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = from + i
		}
		return out
	}
	widths := func(batches [][]int) []int {
		var out []int
		for _, b := range batches {
			out = append(out, len(b))
		}
		return out
	}
	// cut is the width-only cut: n cells in w-lane batches and a tail.
	cut := func(n, w int) []int {
		var out []int
		for ; n > 0; n -= w {
			out = append(out, min(n, w))
		}
		return out
	}
	def := sim.DefaultBatchSize()
	for _, tc := range []struct {
		name           string
		groups         [][]int
		width, workers int
		want           []int // batch widths, in order
	}{
		// The manycore grid's three cells on two CPUs: a two-lane and a
		// one-lane task instead of one three-lane task.
		{"3 cells, 2 workers", [][]int{seq(0, 3)}, def, 2, []int{2, 1}},
		// Plenty of cells: the cache-sized width still caps every batch.
		{"96 cells, 2 workers", [][]int{seq(0, 96)}, def, 2, cut(96, def)},
		// One worker keeps the width-only cut.
		{"1 worker", [][]int{seq(0, 23)}, def, 1, cut(23, def)},
		{"1 worker, 3 cells", [][]int{seq(0, 3)}, def, 1, []int{3}},
		// A narrower width caps below the per-worker share.
		{"explicit width", [][]int{seq(0, 12)}, 4, 2, []int{4, 4, 4}},
		{"width 1", [][]int{seq(0, 3)}, 1, 2, []int{1, 1, 1}},
		// Each group is cut on its own, in first-seen order.
		{"two groups", [][]int{seq(0, 12), seq(12, 3)}, 10, 2, []int{6, 6, 2, 1}},
		{"more workers than cells", [][]int{seq(0, 3)}, def, 8, []int{1, 1, 1}},
	} {
		got := cutBatches(tc.groups, tc.width, tc.workers)
		if w := widths(got); !slices.Equal(w, tc.want) {
			t.Errorf("%s: batch widths %v, want %v", tc.name, w, tc.want)
		}
		var flat, want []int
		for _, b := range got {
			flat = append(flat, b...)
		}
		for _, g := range tc.groups {
			want = append(want, g...)
		}
		if !slices.Equal(flat, want) {
			t.Errorf("%s: batches %v do not cover the groups' cells in order", tc.name, got)
		}
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"table1", "table2", "table3", "table4", "pi", "fig3",
		"table5", "fig5", "table6", "table7", "fig7", "table8",
		"sensitivity", "dutyvalid"}
	reg := Registry()
	if len(reg) != len(want) {
		t.Fatalf("registry size %d, want %d", len(reg), len(want))
	}
	for i, w := range want {
		if reg[i].Name != w {
			t.Errorf("registry[%d] = %s, want %s", i, reg[i].Name, w)
		}
	}
	if _, err := Find("table5"); err != nil {
		t.Error(err)
	}
	if _, err := Find("nope"); err == nil {
		t.Error("unknown artifact accepted")
	}
}

func TestStaticTables(t *testing.T) {
	if s := Table2().Render(); !strings.Contains(s, "stop-go / DVFS") {
		t.Errorf("table2 malformed:\n%s", s)
	}
	if s := Table3().Render(); !strings.Contains(s, "3.6 GHz") || !strings.Contains(s, "720 MHz") {
		t.Errorf("table3 missing clock data:\n%s", s)
	}
	s := Table4().Render()
	if !strings.Contains(s, "gzip, twolf, ammp, lucas") || !strings.Contains(s, "IIFF") {
		t.Errorf("table4 missing workload7:\n%s", s)
	}
}

func TestPIAnalysisReproducesPaper(t *testing.T) {
	r, err := RunPIAnalysis()
	if err != nil {
		t.Fatal(err)
	}
	if e := r.CoefficientError(); e > 0.002 {
		t.Errorf("discrete coefficient error %.4f%% too large", e*100)
	}
	if !r.ContinuousOK || !r.DiscreteOK || !r.RobustnessOK {
		t.Errorf("stability flags: continuous=%v discrete=%v robust=%v",
			r.ContinuousOK, r.DiscreteOK, r.RobustnessOK)
	}
	if !strings.Contains(r.Render(), "-0.0107") {
		t.Error("render missing published coefficient")
	}
}

func TestTable1ShapeQuick(t *testing.T) {
	r, err := RunTable1(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Stable) != 8 || len(r.Ranging) != 4 {
		t.Fatalf("rows = %d/%d", len(r.Stable), len(r.Ranging))
	}
	if e := r.MaxStableError(); e > 2.0 {
		t.Errorf("worst stable-temperature error %.1f °C > 2 °C", e)
	}
	for _, row := range r.Ranging {
		if row.MaxC-row.MinC < 2 {
			t.Errorf("%s: measured range %.0f-%.0f too narrow for a non-steady benchmark",
				row.Name, row.MinC, row.MaxC)
		}
	}
	// mcf must be the coolest stable benchmark, sixtrack the hottest.
	var min, max Table1Row
	min.MeasuredC, max.MeasuredC = 1e9, -1e9
	for _, row := range r.Stable {
		if row.MeasuredC < min.MeasuredC {
			min = row
		}
		if row.MeasuredC > max.MeasuredC {
			max = row
		}
	}
	if min.Name != "mcf" {
		t.Errorf("coolest = %s, want mcf", min.Name)
	}
	if max.Name != "sixtrack" && max.Name != "gzip" {
		t.Errorf("hottest = %s, want sixtrack or gzip", max.Name)
	}
}

func TestTable5OrderingQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation suite")
	}
	r, err := RunTable5(quick(t))
	if err != nil {
		t.Fatal(err)
	}
	gs := core.PolicySpec{Mechanism: core.StopGo, Scope: core.Global}
	gd := core.PolicySpec{Mechanism: core.DVFS, Scope: core.Global}
	dd := core.PolicySpec{Mechanism: core.DVFS, Scope: core.Distributed}
	// Paper ordering: global stop-go < dist stop-go < global DVFS < dist DVFS.
	if !(r.Relative(gs) < 1 && 1 < r.Relative(gd) && r.Relative(gd) < r.Relative(dd)) {
		t.Errorf("ordering broken: gStop=%.2f base=1.00 gDVFS=%.2f dDVFS=%.2f",
			r.Relative(gs), r.Relative(gd), r.Relative(dd))
	}
	if r.Emergencies() > 0.01 {
		t.Errorf("thermal emergencies: %.1f ms", r.Emergencies()*1e3)
	}
	if !strings.Contains(r.Render(), "paper rel.") {
		t.Error("render missing paper reference column")
	}
}

func TestFig3SeriesQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation suite")
	}
	r, err := RunFig3(quick(t))
	if err != nil {
		t.Fatal(err)
	}
	dd := core.PolicySpec{Mechanism: core.DVFS, Scope: core.Distributed}
	if len(r.Series[dd]) != 3 {
		t.Fatalf("series length %d", len(r.Series[dd]))
	}
	for i, v := range r.Series[dd] {
		if v < 1 {
			t.Errorf("workload %d: dist DVFS rel %.2f below baseline", i, v)
		}
	}
}

func TestTable6SpeedupsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation suite")
	}
	r, err := RunTable6(quick(t))
	if err != nil {
		t.Fatal(err)
	}
	for spec, s := range r.SpeedupOverBase {
		if spec.Mechanism == core.StopGo && s < 1.0 {
			t.Errorf("%s: migration speedup %.2f < 1 over stop-go", spec, s)
		}
		if spec.Mechanism == core.DVFS && s < 0.93 {
			t.Errorf("%s: migration speedup %.2f catastrophically low", spec, s)
		}
	}
	if !strings.Contains(r.Render(), "Table 6") {
		t.Error("render missing table header")
	}
}

func TestFig5SeriesQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation suite")
	}
	r, err := RunFig5(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) < 50 {
		t.Fatalf("only %d points", len(r.Points))
	}
	for _, p := range r.Points {
		if p.Scale < 0.2 || p.Scale > 1.0 {
			t.Errorf("scale %v outside actuator limits", p.Scale)
		}
		if p.IntRF > 84.5 || p.FPRF > 84.5 {
			t.Errorf("hotspot exceeded threshold: %v/%v", p.IntRF, p.FPRF)
		}
	}
	if r.Migrations() == 0 {
		t.Error("no migrations observed on the core (Figure 5 shows several)")
	}
	if !strings.Contains(r.Render(), "migration") {
		t.Error("render missing migration markers")
	}
}

func TestSensitivityQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation suite")
	}
	r, err := RunSensitivity(quick(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range r.Specs {
		if r.DutyAt100[spec] <= r.DutyAt84[spec] {
			t.Errorf("%s: duty did not rise at 100 °C (%.3f vs %.3f)",
				spec, r.DutyAt100[spec], r.DutyAt84[spec])
		}
	}
	if !r.OrderingPreserved() {
		t.Error("policy ordering changed at the relaxed threshold")
	}
}

func TestDutyValidityQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation suite")
	}
	r, err := RunDutyValidity(quick(t))
	if err != nil {
		t.Fatal(err)
	}
	if e := r.WorstError(); e > 10 {
		t.Errorf("duty metric error %.1f points; paper reports accurate prediction", e)
	}
}
