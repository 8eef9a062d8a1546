package thermal

import (
	"math"
	"math/rand"
	"testing"

	"multitherm/internal/floorplan"
)

const batchTestDt = 28e-6

// newBatchLanes stamps k models from the shared CMP4 template with
// distinct initial power vectors.
func newBatchLanes(t *testing.T, k int) []*Model {
	t.Helper()
	models := make([]*Model, k)
	for l := range models {
		m, err := New(floorplan.CMP4(), DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		p := make([]float64, m.NumBlocks())
		for i := range p {
			p[i] = 0.5 + 0.25*float64(l) + 0.1*float64(i)
		}
		m.SetPower(p)
		models[l] = m
	}
	return models
}

// TestBatchMatchesSequentialExact is the core bit-identity guard: a
// lane's trajectory must not depend on the batch width. A K-lane batch
// must reproduce K models stepped alone — each in the one-lane batch
// UseExact builds — to the last bit, for widths that hit every kernel
// route (single lanes, whole quads, quads plus a remainder), through a
// schedule that mixes constant-power ticks, one lane changing power
// and every lane changing at once.
func TestBatchMatchesSequentialExact(t *testing.T) {
	for _, k := range []int{1, 2, 3, 5, 8} {
		ref := newBatchLanes(t, k)
		bat := newBatchLanes(t, k)
		for _, m := range ref {
			if err := m.UseExact(batchTestDt); err != nil {
				t.Fatal(err)
			}
		}
		batch, err := NewBatch(bat, batchTestDt)
		if err != nil {
			t.Fatal(err)
		}

		rng := rand.New(rand.NewSource(int64(100 + k)))
		p := make([]float64, ref[0].NumBlocks())
		for tick := 0; tick < 400; tick++ {
			switch tick % 4 {
			case 1: // one lane changes power
				l := rng.Intn(k)
				for i := range p {
					p[i] = 2 * rng.Float64()
				}
				ref[l].SetPower(p)
				bat[l].SetPower(p)
			case 3: // every lane changes
				for l := 0; l < k; l++ {
					for i := range p {
						p[i] = 2 * rng.Float64()
					}
					ref[l].SetPower(p)
					bat[l].SetPower(p)
				}
			}
			for _, m := range ref {
				m.Step(batchTestDt)
			}
			batch.Step()
			for l := 0; l < k; l++ {
				for i := 0; i < ref[l].NumNodes(); i++ {
					if ref[l].temps[i] != bat[l].temps[i] {
						t.Fatalf("k=%d tick %d lane %d node %d: batch %v != sequential %v",
							k, tick, l, i, bat[l].temps[i], ref[l].temps[i])
					}
				}
			}
		}
	}
}

// TestBatchStepZeroAllocs asserts the batched tick is allocation-free
// in steady state, with and without new power between ticks.
func TestBatchStepZeroAllocs(t *testing.T) {
	models := newBatchLanes(t, 8)
	batch, err := NewBatch(models, batchTestDt)
	if err != nil {
		t.Fatal(err)
	}
	p := make([]float64, models[0].NumBlocks())
	for i := range p {
		p[i] = 1.5
	}
	if allocs := testing.AllocsPerRun(100, func() { batch.Step() }); allocs != 0 {
		t.Fatalf("constant-power batched tick allocates %.0f objects, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		for _, m := range models {
			m.SetPower(p)
		}
		batch.Step()
	}); allocs != 0 {
		t.Fatalf("batched tick after SetPower allocates %.0f objects, want 0", allocs)
	}
}

// TestBatchAdoptedModelViewsAliasPanels checks that adopted models keep
// behaving as plain Models across the panel swaps: after every tick
// each model's temps is its own lane of the live state panel and its
// power its own lane of the power panel, so SetPower lands where the Ψ
// pass reads and Temp/MaxBlockTemp read the state just written.
func TestBatchAdoptedModelViewsAliasPanels(t *testing.T) {
	models := newBatchLanes(t, 3)
	batch, err := NewBatch(models, batchTestDt)
	if err != nil {
		t.Fatal(err)
	}
	n := models[0].NumNodes()
	for tick := 0; tick < 5; tick++ {
		batch.Step()
		for l, m := range models {
			if &m.temps[0] != &batch.x[l*batch.stride] || len(m.temps) != n {
				t.Fatalf("tick %d lane %d: temps is not lane %d of the live state panel", tick, l, l)
			}
			if &m.power[0] != &batch.pw[l*n] || len(m.power) != n {
				t.Fatalf("tick %d lane %d: power is not lane %d of the power panel", tick, l, l)
			}
		}
	}
	for l, m := range models {
		hot, idx := m.MaxBlockTemp()
		if idx < 0 || hot <= 0 {
			t.Fatalf("lane %d: view lost after swaps: hot=%v idx=%d", l, hot, idx)
		}
		if got := m.Temp(idx); got != hot {
			t.Fatalf("lane %d: Temp(%d) = %v, MaxBlockTemp = %v", l, idx, got, hot)
		}
	}
	// Lanes must heat differently (distinct powers) — a panel-indexing
	// bug that cross-wires lanes would make them identical.
	a, _ := models[0].MaxBlockTemp()
	b, _ := models[2].MaxBlockTemp()
	if a == b {
		t.Fatalf("lanes 0 and 2 identical (%v) despite distinct power inputs", a)
	}
}

// TestBatchRejectsMixedTemplates checks the adoption-time guard.
func TestBatchRejectsMixedTemplates(t *testing.T) {
	a, err := New(floorplan.CMP4(), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	params := DefaultParams()
	params.Ambient = 40 // different params → different template
	b, err := New(floorplan.CMP4(), params)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewBatch([]*Model{a, b}, batchTestDt); err == nil {
		t.Fatal("batch accepted models from different templates")
	}
	if _, err := NewBatch(nil, batchTestDt); err == nil {
		t.Fatal("batch accepted zero lanes")
	}
}

// TestAdoptionCarriesStateOver checks that adoption moves a model's
// live state onto its lanes: the temperatures and power a model holds
// when UseExact or NewBatch adopts it must drive its exact ticks. Each
// adopted model starts from a warm, non-uniform state under power that
// differs from its warmup power, steps with no further SetPower, and
// must track an RK4 twin that was never adopted to well under a
// microkelvin; a lane that started cold or unpowered would be off by
// degrees or millikelvins.
func TestAdoptionCarriesStateOver(t *testing.T) {
	for _, k := range []int{1, 3} {
		models := newBatchLanes(t, k)
		twins := newBatchLanes(t, k)
		for l := range models {
			warm := make([]float64, models[l].NumBlocks())
			for i := range warm {
				warm[i] = 3 + 0.2*float64(i%7) + float64(l)
			}
			if err := models[l].InitSteadyState(warm); err != nil {
				t.Fatal(err)
			}
			twins[l].SetNodeTemps(models[l].NodeTemps())
		}
		var step func()
		if k == 1 {
			if err := models[0].UseExact(batchTestDt); err != nil {
				t.Fatal(err)
			}
			step = func() { models[0].Step(batchTestDt) }
		} else {
			batch, err := NewBatch(models, batchTestDt)
			if err != nil {
				t.Fatal(err)
			}
			step = batch.Step
		}
		for tick := 0; tick < 50; tick++ {
			step()
			for _, m := range twins {
				m.Step(batchTestDt)
			}
		}
		for l := range models {
			for i := 0; i < models[l].NumNodes(); i++ {
				if d := math.Abs(models[l].temps[i] - twins[l].temps[i]); d > 1e-6 {
					t.Fatalf("k=%d lane %d node %d: adopted %.9f, RK4 twin %.9f",
						k, l, i, models[l].temps[i], twins[l].temps[i])
				}
			}
		}
	}
}
