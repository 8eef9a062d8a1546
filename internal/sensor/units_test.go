package sensor

import (
	"math"
	"testing"

	"multitherm/internal/units"
)

// TestNoisySensorCelsiusRoundTrip checks the runtime half of the
// dimensional contract: a noisy, offset, quantized sensor takes a
// units.TempVec in and hands units.Celsius out, and the typed value
// survives a round trip back into a TempVec bit-exactly.
func TestNoisySensorCelsiusRoundTrip(t *testing.T) {
	temps := units.TempVec{71.3, 84.9, 62.0}
	s := Sensor{
		Name:           "irf",
		Block:          1,
		Quantization:   0.5,
		NoiseAmplitude: 2,
		Offset:         -1,
		Seed:           7,
	}

	// The reading is a units.Celsius by type — the compiler enforces the
	// gauge — and numerically stays within offset + noise + half a
	// quantization step of the true block temperature.
	var got units.Celsius = s.Read(temps, 3)
	truth := units.Celsius(temps.At(1))
	bound := float64(s.NoiseAmplitude) + math.Abs(float64(s.Offset)) + float64(s.Quantization)/2
	if diff := math.Abs(float64(got - truth)); diff > bound {
		t.Fatalf("reading %v strays %.3f °C from truth %v, bound %.3f", got, diff, truth, bound)
	}
	if q := float64(s.Quantization); math.Abs(math.Mod(float64(got), q)) > 1e-9 {
		t.Fatalf("reading %v not on the %.2f °C quantization grid", got, q)
	}

	// Round trip: writing the Celsius reading into a TempVec and reading
	// it back is bit-exact — the typed views share float64 storage.
	rt := units.MakeTempVec(1)
	rt.Set(0, got)
	if back := rt.At(0); back != got {
		t.Fatalf("round trip changed the reading: wrote %v, read %v", got, back)
	}
}

// TestBankReadAllStaysTyped checks the whole-bank path: ReadAll fills a
// units.TempVec whose elements are the same typed Celsius readings the
// scalar path produces — no gauge is dropped between the two APIs.
func TestBankReadAllStaysTyped(t *testing.T) {
	temps := units.TempVec{70, 80, 90}
	b := Bank{Sensors: []Sensor{
		{Name: "a", Block: 0, NoiseAmplitude: 1.5, Seed: 1},
		{Name: "b", Block: 2, NoiseAmplitude: 1.5, Seed: 2},
	}}

	var out units.TempVec = b.ReadAll(nil, temps, 11)
	if out.Len() != len(b.Sensors) {
		t.Fatalf("ReadAll produced %d readings for %d sensors", out.Len(), len(b.Sensors))
	}
	for i := range b.Sensors {
		want := b.Sensors[i].Read(temps, 11)
		if got := out.At(i); got != want {
			t.Errorf("sensor %d: ReadAll %v != scalar Read %v", i, got, want)
		}
	}
}
