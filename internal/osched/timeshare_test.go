package osched

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// rotationOracle is RotationAssignment's victim search before the
// replaced-core marks: for every incoming process it rescans the wait
// queue's prefix to skip the cores earlier incoming processes took.
func rotationOracle(s *Scheduler, now float64) []int {
	assign := s.Assignment()
	k := min(len(s.waitQueue), s.nCores)
	for i := 0; i < k; i++ {
		incoming := s.waitQueue[i]
		victim, worst := -1, math.Inf(-1)
		for c, p := range assign {
			already := false
			for j := 0; j < i; j++ {
				if assign[c] == s.waitQueue[j] {
					already = true
				}
			}
			if already {
				continue
			}
			if run := s.cumRun[p] + (now - s.stintStart[p]); run > worst {
				victim, worst = c, run
			}
		}
		if victim < 0 {
			break
		}
		assign[victim] = incoming
	}
	return assign
}

// TestRotationAssignmentMatchesRescan checks RotationAssignment against
// the prefix-rescanning oracle over random runtime states, at the
// paper's 4 cores with 6 processes and at the 16x16 grid's 256 cores
// with 384. Every other round quantizes the runtimes so victims tie and
// the first-maximum rule decides. Each round's assignment is applied,
// so the wait queue's order changes from round to round.
func TestRotationAssignmentMatchesRescan(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, tc := range []struct{ cores, procs int }{{4, 6}, {256, 384}} {
		s, err := NewTimeshared(make([]string, tc.procs), tc.cores, 0)
		if err != nil {
			t.Fatal(err)
		}
		now := 0.0
		for round := 0; round < 24; round++ {
			now += DefaultTimeslice
			for p := range s.procs {
				if round%2 == 0 {
					s.cumRun[p] = now * rng.Float64()
					s.stintStart[p] = now - DefaultTimeslice*rng.Float64()
				} else {
					s.cumRun[p] = 5e-3 * float64(rng.Intn(3))
					s.stintStart[p] = now - 10e-3*float64(rng.Intn(2))
				}
			}
			want := rotationOracle(s, now)
			got := s.RotationAssignment(now)
			if !slices.Equal(got, want) {
				t.Fatalf("%d cores, round %d: RotationAssignment %v, rescan %v", tc.cores, round, got, want)
			}
			if _, err := s.Apply(now, got); err != nil {
				t.Fatal(err)
			}
			s.MarkRotation(now)
		}
	}
}
