// Package sensor models on-chip thermal sensors. Every DTM policy in
// the paper relies on sensors "to make proper decisions at the correct
// times" (§2.5): stop-go trips on them, the PI controllers consume the
// hottest watched sensor (§5.2), and sensor-based migration tracks their
// trends over time. Sensors read the thermal model's block temperatures
// with optional quantization, offset, and deterministic noise — the
// Banias ACPI diode of Table 1, for instance, quantizes to whole
// degrees Celsius.
package sensor

import (
	"fmt"
	"math"

	"multitherm/internal/floorplan"
	"multitherm/internal/units"
)

// Sensor watches a single floorplan block.
type Sensor struct {
	Name  string
	Block int // die-block index in the floorplan / thermal model
	Core  int // owning core, or floorplan.SharedCore

	// Quantization rounds readings to the nearest multiple (°C).
	// Zero means a continuous reading.
	Quantization units.Celsius
	// NoiseAmplitude adds deterministic pseudo-random error in
	// [−NoiseAmplitude, +NoiseAmplitude] °C, varying per reading index.
	NoiseAmplitude units.Celsius
	// Offset is a fixed calibration error in °C.
	Offset units.Celsius
	// Seed decorrelates noise across sensors.
	Seed uint64
}

// Read returns the sensor value for the given block temperatures at
// reading index n (deterministic in n for reproducibility).
func (s *Sensor) Read(temps units.TempVec, n int64) units.Celsius {
	v := temps[s.Block] + float64(s.Offset)
	if s.NoiseAmplitude > 0 {
		v += float64(s.NoiseAmplitude) * noise(s.Seed, uint64(n))
	}
	if q := float64(s.Quantization); q > 0 {
		v = math.Round(v/q) * q
	}
	return units.Celsius(v)
}

// noise maps (seed, n) deterministically to [−1, 1].
func noise(seed, n uint64) float64 {
	x := seed ^ 0xD1B54A32D192ED03 ^ (n * 0x9E3779B97F4A7C15)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return float64(x)/float64(math.MaxUint64)*2 - 1
}

// Bank is an ordered set of sensors, typically one core's watched
// hotspots or the whole chip's sensor complement.
//
// The per-core readers walk an index of the sensors by owning core,
// built on their first call and rebuilt whenever len(Sensors) changes.
// Changing a sensor's Core in place after that first call therefore
// needs a fresh Bank, and a Bank is not safe for concurrent use.
type Bank struct {
	Sensors []Sensor

	// byCore[c-lo] lists the positions in Sensors of core c's sensors,
	// in declaration order; indexed is len(Sensors) at the last build.
	byCore  [][]int
	lo      int
	indexed int
}

// Hottest returns the maximum reading across the bank and the index
// (within the bank) of the sensor that produced it. The PI controller
// "typically selects the hottest of the input temperatures" (§4.1).
func (b *Bank) Hottest(temps units.TempVec, n int64) (units.Celsius, int) {
	if len(b.Sensors) == 0 {
		panic("sensor: Hottest on empty bank")
	}
	max, idx := units.Celsius(math.Inf(-1)), -1
	for i := range b.Sensors {
		if v := b.Sensors[i].Read(temps, n); v > max {
			max, idx = v, i
		}
	}
	return max, idx
}

// ReadAll fills dst with every sensor's reading.
func (b *Bank) ReadAll(dst units.TempVec, temps units.TempVec, n int64) units.TempVec {
	if dst == nil {
		dst = units.MakeTempVec(len(b.Sensors))
	}
	for i := range b.Sensors {
		dst.Set(i, b.Sensors[i].Read(temps, n))
	}
	return dst
}

// ForCore returns the sub-bank of sensors owned by the given core.
// It allocates a fresh bank; per-tick readers should use HottestForCore
// or CoreSensors instead.
func (b *Bank) ForCore(core int) *Bank {
	out := &Bank{}
	for _, s := range b.Sensors {
		if s.Core == core {
			out.Sensors = append(out.Sensors, s)
		}
	}
	return out
}

// CoreSensors returns the positions in Sensors of the sensors the
// given core owns, in declaration order, or nil if it owns none. The
// slice belongs to the bank's per-core index and must not be modified.
func (b *Bank) CoreSensors(core int) []int {
	if b.indexed != len(b.Sensors) {
		b.buildIndex()
	}
	if c := core - b.lo; c >= 0 && c < len(b.byCore) {
		return b.byCore[c]
	}
	return nil
}

// buildIndex groups the sensor positions by owning core, in one pass
// over the bank.
func (b *Bank) buildIndex() {
	b.byCore, b.lo, b.indexed = nil, 0, len(b.Sensors)
	if len(b.Sensors) == 0 {
		return
	}
	hi := 0
	for i := range b.Sensors {
		b.lo = min(b.lo, b.Sensors[i].Core)
		hi = max(hi, b.Sensors[i].Core)
	}
	b.byCore = make([][]int, hi-b.lo+1)
	for i := range b.Sensors {
		c := b.Sensors[i].Core - b.lo
		b.byCore[c] = append(b.byCore[c], i)
	}
}

// HottestForCore returns the maximum reading across the sensors owned
// by the given core and the index (within this bank) of the sensor that
// produced it. Readings and scan order match ForCore(core).Hottest
// exactly — sensors keep their declaration order either way, and the
// first maximum wins — but only the core's own sensors are read, through
// the per-core index, and nothing is allocated, so throttlers can call
// it every control tick. Panics if the core owns no sensors, like
// Hottest on an empty bank.
func (b *Bank) HottestForCore(core int, temps units.TempVec, n int64) (units.Celsius, int) {
	max, idx := units.Celsius(math.Inf(-1)), -1
	for _, i := range b.CoreSensors(core) {
		if v := b.Sensors[i].Read(temps, n); v > max {
			max, idx = v, i
		}
	}
	if idx < 0 {
		b.noSensorsForCore(core)
	}
	return max, idx
}

// noSensorsForCore lives outside HottestForCore so the formatting
// allocation stays off the hot function's escape analysis.
//
//go:noinline
func (b *Bank) noSensorsForCore(core int) {
	panic(fmt.Sprintf("sensor: HottestForCore on core %d with no sensors (bank size %d)",
		core, len(b.Sensors)))
}

// CoreHotspots builds the paper's per-core sensor complement: one
// sensor at each register-file unit ("thermal sensors at the two
// register file units on each core sense the hotspot temperatures",
// §5.1). Quantization and noise default to an idealized fast sensor;
// callers may adjust fields afterwards.
func CoreHotspots(fp *floorplan.Floorplan) (*Bank, error) {
	b := &Bank{}
	n := fp.NumCores()
	byCore, _ := fp.BlocksByCore()
	for core := 0; core < n; core++ {
		// The first block of each kind, as FindCoreBlock would pick.
		irf, fprf := -1, -1
		if core < len(byCore) {
			for _, i := range byCore[core] {
				switch fp.Blocks[i].Kind {
				case floorplan.KindIntRegFile:
					if irf < 0 {
						irf = i
					}
				case floorplan.KindFPRegFile:
					if fprf < 0 {
						fprf = i
					}
				}
			}
		}
		if irf < 0 || fprf < 0 {
			return nil, fmt.Errorf("sensor: core %d lacks register-file blocks", core)
		}
		b.Sensors = append(b.Sensors,
			Sensor{
				Name: fmt.Sprintf("c%d_irf", core), Block: irf, Core: core,
				Quantization: 0.1, Seed: uint64(1000 + core*2),
			},
			Sensor{
				Name: fmt.Sprintf("c%d_fprf", core), Block: fprf, Core: core,
				Quantization: 0.1, Seed: uint64(1001 + core*2),
			},
		)
	}
	return b, nil
}

// ACPIDiode builds the single edge-of-die diode of the paper's Banias
// measurements: 1 °C quantization ("all measurements are rounded to the
// nearest degree Celsius").
func ACPIDiode(fp *floorplan.Floorplan) (*Bank, error) {
	idx := fp.BlockIndex("diode_site")
	if idx < 0 {
		return nil, fmt.Errorf("sensor: floorplan %s has no diode_site block", fp.Name)
	}
	return &Bank{Sensors: []Sensor{{
		Name: "acpi_diode", Block: idx, Core: 0, Quantization: 1.0, Seed: 4242,
	}}}, nil
}
