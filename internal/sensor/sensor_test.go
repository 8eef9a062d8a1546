package sensor

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"multitherm/internal/floorplan"
	"multitherm/internal/units"
)

func TestReadIdeal(t *testing.T) {
	s := Sensor{Block: 2}
	temps := units.TempVec{10, 20, 33.37}
	if got := s.Read(temps, 0); got != 33.37 {
		t.Errorf("Read = %v, want exact temperature", got)
	}
}

func TestReadQuantization(t *testing.T) {
	s := Sensor{Block: 0, Quantization: 1.0}
	if got := s.Read(units.TempVec{68.4}, 0); got != 68 {
		t.Errorf("quantized read = %v, want 68", got)
	}
	if got := s.Read(units.TempVec{68.6}, 0); got != 69 {
		t.Errorf("quantized read = %v, want 69", got)
	}
}

func TestReadOffset(t *testing.T) {
	s := Sensor{Block: 0, Offset: -1.5}
	if got := s.Read(units.TempVec{70}, 0); got != 68.5 {
		t.Errorf("offset read = %v, want 68.5", got)
	}
}

func TestReadNoiseBoundedAndDeterministic(t *testing.T) {
	s := Sensor{Block: 0, NoiseAmplitude: 0.5, Seed: 7}
	temps := units.TempVec{80}
	for n := int64(0); n < 500; n++ {
		v := s.Read(temps, n)
		if math.Abs(float64(v)-80) > 0.5 {
			t.Fatalf("noise exceeded amplitude: %v", v)
		}
		if v != s.Read(temps, n) {
			t.Fatal("reading not deterministic")
		}
	}
	// Noise must actually vary.
	if s.Read(temps, 1) == s.Read(temps, 2) && s.Read(temps, 2) == s.Read(temps, 3) {
		t.Error("noise appears constant")
	}
}

func TestBankHottest(t *testing.T) {
	b := Bank{Sensors: []Sensor{{Block: 0}, {Block: 1}, {Block: 2}}}
	temps := units.TempVec{50, 90, 70}
	v, idx := b.Hottest(temps, 0)
	if v != 90 || idx != 1 {
		t.Errorf("Hottest = (%v,%d), want (90,1)", v, idx)
	}
}

// TestHottestForCoreMatchesForCore pins the equivalence the throttlers
// rely on after dropping the allocating ForCore sub-bank from their
// per-tick path: for every core, HottestForCore must report the same
// reading and sensor ForCore(...).Hottest does, and it must not
// allocate. The bank's cores interleave, and it grows after its first
// per-core read — a new core, new sensors for old cores that run
// hotter, and a copy of core 1's first sensor that ties it on every
// reading, where the first must still win — so the per-core index must
// be rebuilt rather than reused.
func TestHottestForCoreMatchesForCore(t *testing.T) {
	b := Bank{Sensors: []Sensor{
		{Block: 0, Core: 0, NoiseAmplitude: 0.5, Seed: 1},
		{Block: 1, Core: 1, NoiseAmplitude: 0.5, Seed: 2},
		{Block: 2, Core: 0, NoiseAmplitude: 0.5, Seed: 3},
		{Block: 3, Core: 1, NoiseAmplitude: 0.5, Seed: 4},
		{Block: 4, Core: 0, NoiseAmplitude: 0.5, Seed: 5},
	}}
	temps := units.TempVec{70, 71, 70, 69, 70, 72, 70, 71} // ties within 0.5 °C of noise
	check := func(cores int) {
		t.Helper()
		for core := 0; core < cores; core++ {
			sub := b.ForCore(core)
			var pos []int // positions in the bank of sub's sensors
			for i, s := range b.Sensors {
				if s.Core == core {
					pos = append(pos, i)
				}
			}
			for n := int64(0); n < 16; n++ {
				want, wantIdx := sub.Hottest(temps, n)
				got, idx := b.HottestForCore(core, temps, n)
				if got != want {
					t.Fatalf("core %d n %d: HottestForCore = %v, ForCore().Hottest = %v",
						core, n, got, want)
				}
				if idx != pos[wantIdx] {
					t.Fatalf("core %d n %d: winning sensor %d, ForCore picks %d",
						core, n, idx, pos[wantIdx])
				}
			}
		}
	}
	check(2)
	b.Sensors = append(b.Sensors,
		Sensor{Block: 5, Core: 2, NoiseAmplitude: 0.5, Seed: 6},
		Sensor{Block: 5, Core: 0, NoiseAmplitude: 0.5, Seed: 7},
		Sensor{Block: 6, Core: 2, NoiseAmplitude: 0.5, Seed: 8},
		Sensor{Block: 7, Core: 1, NoiseAmplitude: 0.5, Seed: 9},
		Sensor{Name: "copy", Block: 1, Core: 1, NoiseAmplitude: 0.5, Seed: 2},
	)
	check(3)
	allocs := testing.AllocsPerRun(100, func() {
		b.HottestForCore(0, temps, 7)
	})
	if allocs != 0 {
		t.Errorf("HottestForCore allocates %v times per call", allocs)
	}
}

// TestCoreSensorsMatchesScan checks the per-core index against a scan
// of the whole bank, on the 16x16 grid's hotspot bank and on a bank
// holding a shared sensor, whose core id sits below zero.
func TestCoreSensorsMatchesScan(t *testing.T) {
	fp, err := floorplan.Grid(floorplan.GridSpec{Rows: 16, Cols: 16})
	if err != nil {
		t.Fatal(err)
	}
	grid, err := CoreHotspots(fp)
	if err != nil {
		t.Fatal(err)
	}
	shared := &Bank{Sensors: []Sensor{{Core: 1}, {Core: floorplan.SharedCore}, {Core: 1}, {Core: 3}}}
	for _, b := range []*Bank{grid, shared} {
		for core := floorplan.SharedCore; core <= 256; core++ {
			var want []int
			for i, s := range b.Sensors {
				if s.Core == core {
					want = append(want, i)
				}
			}
			if got := b.CoreSensors(core); !slices.Equal(got, want) {
				t.Fatalf("core %d: CoreSensors = %v, scan = %v", core, got, want)
			}
		}
	}
}

func TestHottestForCoreUnknownCorePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	b := Bank{Sensors: []Sensor{{Block: 0, Core: 0}}}
	b.HottestForCore(3, units.TempVec{1}, 0)
}

func TestBankHottestEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	(&Bank{}).Hottest(units.TempVec{1}, 0)
}

func TestBankReadAll(t *testing.T) {
	b := Bank{Sensors: []Sensor{{Block: 0}, {Block: 2}}}
	got := b.ReadAll(nil, units.TempVec{1, 2, 3}, 0)
	if got[0] != 1 || got[1] != 3 {
		t.Errorf("ReadAll = %v", got)
	}
}

// TestCoreHotspotsMatchesFindCoreBlock pins CoreHotspots's bank —
// sensors, order and seeds — to the per-core FindCoreBlock lookups it
// once made, on the paper's part, on the 16x16 grid, and on a core
// with two integer register files, where the first one is watched.
func TestCoreHotspotsMatchesFindCoreBlock(t *testing.T) {
	grid, err := floorplan.Grid(floorplan.GridSpec{Rows: 16, Cols: 16})
	if err != nil {
		t.Fatal(err)
	}
	twoIRF := &floorplan.Floorplan{Name: "two-irf", Blocks: []floorplan.Block{
		{Name: "irf0", Kind: floorplan.KindIntRegFile},
		{Name: "fprf", Kind: floorplan.KindFPRegFile},
		{Name: "irf1", Kind: floorplan.KindIntRegFile},
	}}
	for _, fp := range []*floorplan.Floorplan{floorplan.CMP4(), grid, twoIRF} {
		b, err := CoreHotspots(fp)
		if err != nil {
			t.Fatal(err)
		}
		var want []Sensor
		for core := 0; core < fp.NumCores(); core++ {
			want = append(want,
				Sensor{
					Name: fmt.Sprintf("c%d_irf", core), Block: fp.FindCoreBlock(core, floorplan.KindIntRegFile),
					Core: core, Quantization: 0.1, Seed: uint64(1000 + core*2),
				},
				Sensor{
					Name: fmt.Sprintf("c%d_fprf", core), Block: fp.FindCoreBlock(core, floorplan.KindFPRegFile),
					Core: core, Quantization: 0.1, Seed: uint64(1001 + core*2),
				})
		}
		if !slices.Equal(b.Sensors, want) {
			t.Errorf("%s: CoreHotspots differs from the FindCoreBlock bank", fp.Name)
		}
	}
}

func TestCoreHotspotsCMP4(t *testing.T) {
	fp := floorplan.CMP4()
	b, err := CoreHotspots(fp)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Sensors) != 8 {
		t.Fatalf("sensor count = %d, want 8 (two per core)", len(b.Sensors))
	}
	for core := 0; core < 4; core++ {
		sub := b.ForCore(core)
		if len(sub.Sensors) != 2 {
			t.Errorf("core %d sub-bank has %d sensors", core, len(sub.Sensors))
		}
		kinds := map[floorplan.UnitKind]bool{}
		for _, s := range sub.Sensors {
			kinds[fp.Blocks[s.Block].Kind] = true
			if fp.Blocks[s.Block].Core != core {
				t.Errorf("sensor %s watches a block on core %d", s.Name, fp.Blocks[s.Block].Core)
			}
		}
		if !kinds[floorplan.KindIntRegFile] || !kinds[floorplan.KindFPRegFile] {
			t.Errorf("core %d does not watch both register files", core)
		}
	}
}

func TestCoreHotspotsRequiresRegFiles(t *testing.T) {
	fp := &floorplan.Floorplan{Name: "bare", ChipW: 1e-3, ChipH: 1e-3,
		Blocks: []floorplan.Block{{Name: "a", Core: 0, W: 1e-3, H: 1e-3}}}
	if _, err := CoreHotspots(fp); err == nil {
		t.Error("floorplan without register files accepted")
	}
}

func TestACPIDiode(t *testing.T) {
	fp := floorplan.Banias()
	b, err := ACPIDiode(fp)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Sensors) != 1 {
		t.Fatalf("diode bank size %d", len(b.Sensors))
	}
	if b.Sensors[0].Quantization != 1.0 {
		t.Errorf("ACPI quantization = %v, want 1 °C", b.Sensors[0].Quantization)
	}
	if _, err := ACPIDiode(floorplan.CMP4()); err == nil {
		t.Error("CMP4 has no diode site; expected error")
	}
}
