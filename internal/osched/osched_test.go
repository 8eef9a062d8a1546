package osched

import (
	"math"
	"testing"
)

func fourProc() *Scheduler {
	return NewScheduler([]string{"gzip", "twolf", "ammp", "lucas"})
}

func TestInitialAssignmentIdentity(t *testing.T) {
	s := fourProc()
	for core := 0; core < 4; core++ {
		if p := s.ProcessOn(core); p.ID != core {
			t.Errorf("core %d runs process %d initially", core, p.ID)
		}
		if s.CoreOf(core) != core {
			t.Errorf("CoreOf(%d) = %d", core, s.CoreOf(core))
		}
	}
	if s.ProcessOn(2).Benchmark != "ammp" {
		t.Errorf("process 2 benchmark = %s", s.ProcessOn(2).Benchmark)
	}
}

func TestMayDecideEpoch(t *testing.T) {
	s := fourProc()
	if !s.MayDecide(0) {
		t.Fatal("first decision should be allowed")
	}
	if _, err := s.Apply(0, []int{0, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if s.MayDecide(5e-3) {
		t.Error("decision allowed 5 ms after previous; epoch is 10 ms")
	}
	if !s.MayDecide(10e-3) {
		t.Error("decision blocked at the epoch boundary")
	}
}

func TestApplySwap(t *testing.T) {
	s := fourProc()
	moved, err := s.Apply(0, []int{1, 0, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if moved != 2 {
		t.Errorf("moved = %d, want 2", moved)
	}
	if s.ProcessOn(0).Benchmark != "twolf" || s.ProcessOn(1).Benchmark != "gzip" {
		t.Error("swap not applied")
	}
	if s.CoreOf(0) != 1 || s.CoreOf(1) != 0 {
		t.Error("reverse map inconsistent after swap")
	}
	if s.Migrations() != 1 {
		t.Errorf("Migrations = %d", s.Migrations())
	}
}

func TestApplyFourWayRotation(t *testing.T) {
	// "A set of migrations can be as simple as a single swap, or as
	// complex as a four-way rotation" (§6.1).
	s := fourProc()
	moved, err := s.Apply(0, []int{3, 0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if moved != 4 {
		t.Errorf("moved = %d, want 4", moved)
	}
	for core := 0; core < 4; core++ {
		if s.CoreOf(s.ProcessOn(core).ID) != core {
			t.Errorf("maps inconsistent at core %d", core)
		}
	}
}

func TestApplyNoopCountsAsDecisionNotMigration(t *testing.T) {
	s := fourProc()
	moved, err := s.Apply(1.0, []int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if moved != 0 {
		t.Errorf("moved = %d", moved)
	}
	if s.Migrations() != 0 {
		t.Error("no-op counted as migration")
	}
	if s.MayDecide(1.005) {
		t.Error("no-op decision did not reset the epoch timer")
	}
}

func TestApplyRejectsBadAssignments(t *testing.T) {
	s := fourProc()
	if _, err := s.Apply(0, []int{0, 1, 2}); err == nil {
		t.Error("short assignment accepted")
	}
	if _, err := s.Apply(0, []int{0, 1, 2, 9}); err == nil {
		t.Error("out-of-range process accepted")
	}
	if _, err := s.Apply(0, []int{0, 1, 2, 2}); err == nil {
		t.Error("duplicate process accepted")
	}
}

func TestMigrationPenaltyWindow(t *testing.T) {
	s := fourProc()
	if _, err := s.Apply(1.0, []int{1, 0, 2, 3}); err != nil {
		t.Fatal(err)
	}
	for _, core := range []int{0, 1} {
		if !s.InPenalty(core, 1.0+50e-6) {
			t.Errorf("core %d should be in 100 µs penalty", core)
		}
		if s.InPenalty(core, 1.0+150e-6) {
			t.Errorf("core %d penalty should have expired", core)
		}
	}
	// Unmoved cores pay nothing.
	if s.InPenalty(2, 1.0+50e-6) || s.InPenalty(3, 1.0+50e-6) {
		t.Error("unmoved core in penalty")
	}
}

func TestCountersIntensity(t *testing.T) {
	c := Counters{AdjCycles: 1000, IntRFAccess: 400, FPRFAccess: 100}
	if got := c.IntIntensity(); got != 0.4 {
		t.Errorf("IntIntensity = %v", got)
	}
	if got := c.FPIntensity(); got != 0.1 {
		t.Errorf("FPIntensity = %v", got)
	}
	var zero Counters
	if zero.IntIntensity() != 0 || zero.FPIntensity() != 0 {
		t.Error("zero counters should yield zero intensity")
	}
}

func TestAccountAccumulatesLifetime(t *testing.T) {
	s := fourProc()
	p := s.Process(0)
	p.Account(1e-3, Counters{AdjCycles: 100, Instructions: 150, IntRFAccess: 80, FPRFAccess: 5})
	p.Account(1e-3, Counters{AdjCycles: 100, Instructions: 130, IntRFAccess: 70, FPRFAccess: 10})
	if p.Lifetime.Instructions != 280 {
		t.Errorf("lifetime instructions = %v", p.Lifetime.Instructions)
	}
	if p.Lifetime.IntRFAccess != 150 {
		t.Errorf("lifetime IRF = %v", p.Lifetime.IntRFAccess)
	}
}

func TestAccountWindowDecays(t *testing.T) {
	s := fourProc()
	p := s.Process(0)
	// Phase 1: heavy integer traffic.
	for i := 0; i < 100; i++ {
		p.Account(1e-3, Counters{AdjCycles: 100, IntRFAccess: 90})
	}
	if ii := p.Window.IntIntensity(); math.Abs(ii-0.9) > 0.01 {
		t.Fatalf("window intensity = %v, want ≈0.9", ii)
	}
	// Phase 2: the program switches to FP; the window must follow well
	// within ~100 ms (window half-life 20 ms) while lifetime lags.
	for i := 0; i < 100; i++ {
		p.Account(1e-3, Counters{AdjCycles: 100, IntRFAccess: 5, FPRFAccess: 85})
	}
	if ii := p.Window.IntIntensity(); ii > 0.15 {
		t.Errorf("window int intensity %v did not track the phase change", ii)
	}
	if fi := p.Window.FPIntensity(); fi < 0.6 {
		t.Errorf("window fp intensity %v did not rise", fi)
	}
	if li := p.Lifetime.IntIntensity(); li < 0.3 {
		t.Errorf("lifetime intensity %v decayed; it should not", li)
	}
}

// TestAccountCachedDecayIsExact pins Account's cached window decay to
// the factor computed afresh on every call: a changed dt must refresh
// the cache, and dt = 0 on a fresh process must decay by Exp2(0) = 1
// rather than read the empty cache. The window starts non-zero, so
// that first decay shows.
func TestAccountCachedDecayIsExact(t *testing.T) {
	p := fourProc().Process(0)
	p.Window = Counters{AdjCycles: 400, Instructions: 500, IntRFAccess: 300, FPRFAccess: 20}
	want := p.Window
	d := Counters{AdjCycles: 100, Instructions: 130, IntRFAccess: 70, FPRFAccess: 10}
	for i, dt := range []float64{0, 1e-3, 1e-3, 2.5e-3, 0, 1e-3} {
		p.Account(dt, d)
		decay := math.Exp2(-dt / p.windowHalflife)
		want.AdjCycles *= decay
		want.Instructions *= decay
		want.IntRFAccess *= decay
		want.FPRFAccess *= decay
		want.AdjCycles += d.AdjCycles
		want.Instructions += d.Instructions
		want.IntRFAccess += d.IntRFAccess
		want.FPRFAccess += d.FPRFAccess
		got := []float64{p.Window.AdjCycles, p.Window.Instructions, p.Window.IntRFAccess, p.Window.FPRFAccess}
		ref := []float64{want.AdjCycles, want.Instructions, want.IntRFAccess, want.FPRFAccess}
		for k := range got {
			if math.Float64bits(got[k]) != math.Float64bits(ref[k]) {
				t.Fatalf("call %d (dt=%g): window field %d = %v, direct decay gives %v", i, dt, k, got[k], ref[k])
			}
		}
		// Keep the counts apart call to call, so a skipped or stale
		// decay shows in every field.
		d.AdjCycles++
		d.Instructions += 3
	}
}

func TestAssignmentCopyIsolated(t *testing.T) {
	s := fourProc()
	a := s.Assignment()
	a[0] = 3
	if s.ProcessOn(0).ID == 3 {
		t.Error("Assignment returned aliased storage")
	}
}

func TestEpochAndPenaltyOverrides(t *testing.T) {
	s := fourProc()
	s.SetEpoch(1e-3)
	s.SetPenalty(1e-6)
	if s.Epoch() != 1e-3 {
		t.Error("epoch override lost")
	}
	if _, err := s.Apply(0, []int{1, 0, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if s.InPenalty(0, 2e-6) {
		t.Error("penalty override not applied")
	}
	if !s.MayDecide(1.1e-3) {
		t.Error("epoch override not applied")
	}
}

func TestTimesharedSchedulerBasics(t *testing.T) {
	s, err := NewTimeshared([]string{"a", "b", "c", "d", "e", "f"}, 4, 20e-3)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumProcesses() != 6 || s.NumCores() != 4 {
		t.Fatalf("dims %d/%d", s.NumProcesses(), s.NumCores())
	}
	if !s.IsWaiting(4) || !s.IsWaiting(5) {
		t.Error("overflow processes not waiting")
	}
	if s.IsWaiting(0) {
		t.Error("process 0 should be running")
	}
	if s.NeedsRotation(0.001) {
		t.Error("rotation due before a timeslice elapsed... expected after MarkRotation baseline")
	}
	if !s.NeedsRotation(25e-3 + 1e9) {
		t.Error("rotation not due after timeslice with waiters")
	}
}

func TestTimesharedRotationSwapsLongestRunner(t *testing.T) {
	s, err := NewTimeshared([]string{"a", "b", "c", "d", "e"}, 4, 10e-3)
	if err != nil {
		t.Fatal(err)
	}
	// Let procs 0-3 run 30 ms; proc 0 has the longest stint (all equal,
	// the first victim scan picks it deterministically).
	assign := s.RotationAssignment(30e-3)
	found := false
	for _, p := range assign {
		if p == 4 {
			found = true
		}
	}
	if !found {
		t.Fatalf("waiting process not scheduled: %v", assign)
	}
	if _, err := s.Apply(30e-3, assign); err != nil {
		t.Fatal(err)
	}
	s.MarkRotation(30e-3)
	// Exactly one process must now be waiting, and it accumulated runtime.
	waiting := 0
	for p := 0; p < s.NumProcesses(); p++ {
		if s.IsWaiting(p) {
			waiting++
			if s.cumRun[p] <= 0 {
				t.Errorf("displaced process %d has no accumulated runtime", p)
			}
		}
	}
	if waiting != 1 {
		t.Errorf("waiting = %d, want 1", waiting)
	}
	// The next rotation must bring the displaced process back (FIFO).
	next := s.RotationAssignment(60e-3)
	if _, err := s.Apply(60e-3, next); err != nil {
		t.Fatal(err)
	}
	// After two rotations everyone has run at some point.
	for p := 0; p < s.NumProcesses(); p++ {
		if s.IsWaiting(p) && s.cumRun[p] == 0 {
			t.Errorf("process %d never ran after two rotations", p)
		}
	}
}

func TestTimesharedRejectsBadConfig(t *testing.T) {
	if _, err := NewTimeshared([]string{"a"}, 2, 0); err == nil {
		t.Error("fewer procs than cores accepted")
	}
	if _, err := NewTimeshared([]string{"a", "b"}, 0, 0); err == nil {
		t.Error("zero cores accepted")
	}
}
