package memo

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func TestLoadOnEmptyMap(t *testing.T) {
	var m Map[string, int]
	if v, ok := m.Load("missing"); ok || v != 0 {
		t.Fatalf("Load on empty map = (%d, %v), want (0, false)", v, ok)
	}
	if n := m.Len(); n != 0 {
		t.Fatalf("Len on empty map = %d", n)
	}
}

func TestLoadOrStoreBuildsOnce(t *testing.T) {
	var m Map[int, string]
	var builds atomic.Int64
	build := func() (string, error) {
		builds.Add(1)
		return "built", nil
	}
	for i := 0; i < 5; i++ {
		v, err := m.LoadOrStore(42, build)
		if err != nil {
			t.Fatal(err)
		}
		if v != "built" {
			t.Fatalf("got %q", v)
		}
	}
	if n := builds.Load(); n != 1 {
		t.Fatalf("build ran %d times, want 1", n)
	}
	if n := m.Len(); n != 1 {
		t.Fatalf("Len = %d, want 1", n)
	}
}

func TestLoadOrStoreErrorDoesNotPublish(t *testing.T) {
	var m Map[int, int]
	boom := errors.New("boom")
	if _, err := m.LoadOrStore(1, func() (int, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("got %v, want boom", err)
	}
	if _, ok := m.Load(1); ok {
		t.Fatal("failed build was published")
	}
	// The key stays open for retry.
	v, err := m.LoadOrStore(1, func() (int, error) { return 7, nil })
	if err != nil || v != 7 {
		t.Fatalf("retry = (%d, %v)", v, err)
	}
}

// TestFirstStoreWins pins the sync.Map-compatible race semantics the
// thermal template cache relies on: when several goroutines build the
// same key concurrently, every caller must come away holding the one
// value that won the publish, never its own losing build.
func TestFirstStoreWins(t *testing.T) {
	var m Map[int, *int]
	const goroutines = 16
	start := make(chan struct{})
	got := make([]*int, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			v, err := m.LoadOrStore(0, func() (*int, error) {
				p := new(int)
				*p = g
				return p, nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			got[g] = v
		}(g)
	}
	close(start)
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if got[g] != got[0] {
			t.Fatalf("goroutine %d holds a different pointer than goroutine 0", g)
		}
	}
}

// TestConcurrentMixedUse hammers readers and writers over disjoint and
// shared keys; run under -race this is the memory-model check for the
// mutex-guarded store.
func TestConcurrentMixedUse(t *testing.T) {
	var m Map[int, int]
	const keys = 32
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := (i + w) % keys
				v, err := m.LoadOrStore(k, func() (int, error) { return k * k, nil })
				if err != nil {
					t.Error(err)
					return
				}
				if v != k*k {
					t.Errorf("key %d = %d, want %d", k, v, k*k)
					return
				}
				if v, ok := m.Load(k); !ok || v != k*k {
					t.Errorf("Load(%d) after LoadOrStore = (%d, %v)", k, v, ok)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if n := m.Len(); n != keys {
		t.Fatalf("Len = %d, want %d", n, keys)
	}
}

// TestRacingBuildersDiscardLosers forces the build-discard path: a
// barrier inside the builder guarantees every goroutine really builds
// (no early Load hit), so exactly one build may win the publish and
// every loser must throw its own value away and return the winner's.
func TestRacingBuildersDiscardLosers(t *testing.T) {
	var m Map[string, *int]
	const racers = 8
	var builds atomic.Int64
	entered := make(chan struct{}, racers)
	barrier := make(chan struct{})
	got := make([]*int, racers)
	var wg sync.WaitGroup
	for g := 0; g < racers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			v, err := m.LoadOrStore("k", func() (*int, error) {
				builds.Add(1)
				entered <- struct{}{}
				<-barrier // hold every racer inside its build
				p := new(int)
				*p = g
				return p, nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			got[g] = v
		}(g)
	}
	// Wait until every racer is committed to building, then release.
	for g := 0; g < racers; g++ {
		<-entered
	}
	close(barrier)
	wg.Wait()
	if n := builds.Load(); n != racers {
		t.Fatalf("%d builds ran, want %d concurrent ones", n, racers)
	}
	for g := 1; g < racers; g++ {
		if got[g] != got[0] {
			t.Fatalf("goroutine %d holds a losing build, not the published winner", g)
		}
	}
	if v, ok := m.Load("k"); !ok || v != got[0] {
		t.Fatal("published value differs from what the racers returned")
	}
	if n := m.Len(); n != 1 {
		t.Fatalf("Len = %d after %d racing builds", n, racers)
	}
}

func BenchmarkLoadHit(b *testing.B) {
	var m Map[string, int]
	for i := 0; i < 64; i++ {
		if _, err := m.LoadOrStore(fmt.Sprintf("key-%d", i), func() (int, error) { return i, nil }); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, ok := m.Load("key-17"); !ok {
				b.Fatal("miss")
			}
		}
	})
}
