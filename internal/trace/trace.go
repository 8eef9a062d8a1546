// Package trace stores and replays per-benchmark activity traces — the
// "long (hundreds of milliseconds) output traces of power behavior
// containing data samples every 100,000 cycles (28 µs)" of paper §3.1.
// Traces are recorded once from the µarch model (the Turandot +
// PowerTimer stage of Figure 2) and then looped by the thermal/timing
// simulator until the full simulated interval has elapsed (§3.3).
package trace

import (
	"fmt"
	"math"

	"multitherm/internal/uarch"
)

// Trace is a recorded activity trace for one benchmark.
type Trace struct {
	Benchmark     string
	SampleSeconds float64 // wall-clock duration of one sample at full speed
	Samples       []uarch.Sample
}

// Record materializes n samples from the generator, mirroring the
// paper's SimPoint-selected 500M-instruction traces (≈3600 intervals at
// IPC ≈ 1.4).
func Record(g *uarch.Generator, n int) (*Trace, error) {
	if n <= 0 {
		return nil, fmt.Errorf("trace: sample count %d must be positive", n)
	}
	t := &Trace{
		Benchmark:     g.Profile().Name,
		SampleSeconds: g.Config().SampleSeconds(),
		Samples:       make([]uarch.Sample, n),
	}
	for i := range t.Samples {
		t.Samples[i] = g.Sample(int64(i))
	}
	return t, nil
}

// Len returns the number of samples.
func (t *Trace) Len() int { return len(t.Samples) }

// Duration returns the trace length in seconds at full speed.
func (t *Trace) Duration() float64 { return float64(len(t.Samples)) * t.SampleSeconds }

// At returns the sample at index i with wraparound: when a trace "is
// completed before the end of the simulation, that trace is restarted
// at the beginning" (§3.3).
func (t *Trace) At(i int64) *uarch.Sample {
	n := int64(len(t.Samples))
	i %= n
	if i < 0 {
		i += n
	}
	return &t.Samples[i]
}

// MeanInstructionsPerSample returns the average instruction count per
// interval, used by calibration and metrics code.
func (t *Trace) MeanInstructionsPerSample() float64 {
	var s float64
	for i := range t.Samples {
		s += t.Samples[i].Instructions
	}
	return s / float64(len(t.Samples))
}

// MeanActivity returns a sample whose activity is the per-kind mean of
// the trace's samples, summed in sample order; its other fields are
// zero. Warmup and the Banias rig's steady states heat the die with it.
func (t *Trace) MeanActivity() uarch.Sample {
	var mean uarch.Sample
	for i := range t.Samples {
		for k, v := range t.Samples[i].Activity {
			mean.Activity[k] += v
		}
	}
	for k := range mean.Activity {
		mean.Activity[k] /= float64(len(t.Samples))
	}
	return mean
}

// Validate checks structural invariants.
func (t *Trace) Validate() error {
	if t.Benchmark == "" {
		return fmt.Errorf("trace: empty benchmark name")
	}
	if t.SampleSeconds <= 0 {
		return fmt.Errorf("trace %s: non-positive sample period", t.Benchmark)
	}
	if len(t.Samples) == 0 {
		return fmt.Errorf("trace %s: no samples", t.Benchmark)
	}
	for i := range t.Samples {
		s := &t.Samples[i]
		if s.Instructions < 0 || math.IsNaN(s.Instructions) {
			return fmt.Errorf("trace %s: bad instruction count at %d", t.Benchmark, i)
		}
		for k, v := range s.Activity {
			if v < 0 || v > 1 || math.IsNaN(v) {
				return fmt.Errorf("trace %s: activity[%d] = %g out of range at sample %d",
					t.Benchmark, k, v, i)
			}
		}
	}
	return nil
}

// Cursor tracks a thread's position within a (looped) trace in units of
// trace samples. Because DVFS changes the cycle length, a core running
// at frequency scale s advances the cursor by s sample-widths per
// wall-clock sample period — the "absolute time" progression of §3.3.
type Cursor struct {
	tr  *Trace
	pos float64 // fractional sample index, monotonically increasing
}

// NewCursor starts a cursor at the beginning of the trace.
func NewCursor(t *Trace) *Cursor { return &Cursor{tr: t} }

// Trace returns the underlying trace.
func (c *Cursor) Trace() *Trace { return c.tr }

// Position returns the cursor's absolute fractional position (not
// wrapped), a measure of total work completed in trace-sample units.
func (c *Cursor) Position() float64 { return c.pos }

// Current returns the sample under the cursor.
func (c *Cursor) Current() *uarch.Sample {
	return c.tr.At(int64(c.pos))
}

// Advance moves the cursor forward by `scale` sample-widths (the core's
// current frequency scale factor for one wall-clock sample period) and
// returns the number of instructions retired during the move, which is
// the traversed fraction of each underlying sample's instruction count.
func (c *Cursor) Advance(scale float64) float64 {
	if scale < 0 {
		panic(fmt.Sprintf("trace: negative advance %g", scale))
	}
	var retired float64
	remaining := scale
	for remaining > 0 {
		idx := int64(c.pos)
		frac := c.pos - float64(idx)
		room := 1 - frac // fraction of current sample left
		step := remaining
		if step > room {
			step = room
		}
		retired += c.tr.At(idx).Instructions * step
		c.pos += step
		remaining -= step
	}
	return retired
}
