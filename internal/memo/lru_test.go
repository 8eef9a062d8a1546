package memo

import (
	"fmt"
	"sync"
	"testing"
)

func TestLRUGetPut(t *testing.T) {
	c := NewLRU[string, int](4)
	if v, ok := c.Get("a"); ok || v != 0 {
		t.Fatalf("Get on empty = (%d, %v)", v, ok)
	}
	c.Put("a", 1)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("Get after Put = (%d, %v)", v, ok)
	}
	c.Put("a", 2) // replace
	if v, _ := c.Get("a"); v != 2 {
		t.Fatalf("replace: got %d", v)
	}
	if n := c.Len(); n != 1 {
		t.Fatalf("Len = %d, want 1", n)
	}
	s := c.Stats()
	if s.Hits != 2 || s.Misses != 1 || s.Evictions != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestLRUEvictsStalest(t *testing.T) {
	c := NewLRU[int, int](3)
	c.Put(1, 10)
	c.Put(2, 20)
	c.Put(3, 30)
	// Touch 1 so 2 becomes the stalest entry.
	if _, ok := c.Get(1); !ok {
		t.Fatal("1 missing before eviction")
	}
	c.Put(4, 40)
	if _, ok := c.Get(2); ok {
		t.Fatal("stalest entry 2 survived eviction")
	}
	for _, k := range []int{1, 3, 4} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("entry %d evicted, want only 2 gone", k)
		}
	}
	if s := c.Stats(); s.Evictions != 1 || s.Entries != 3 {
		t.Fatalf("stats = %+v", s)
	}

	// The Gets above left 1 the stalest. Replacing its value makes it
	// the most recently used, so the next insert evicts 3 instead.
	c.Put(1, 11)
	c.Put(5, 50)
	if _, ok := c.Get(3); ok {
		t.Fatal("entry 3 survived; replacing 1 did not refresh its recency")
	}
	if v, ok := c.Get(1); !ok || v != 11 {
		t.Fatalf("Get(1) after replace = (%d, %v), want (11, true)", v, ok)
	}
	if s := c.Stats(); s.Evictions != 2 || s.Entries != 3 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestLRUDisabled(t *testing.T) {
	c := NewLRU[string, string](0)
	c.Put("k", "v")
	if _, ok := c.Get("k"); ok {
		t.Fatal("disabled cache returned a hit")
	}
	if n := c.Len(); n != 0 {
		t.Fatalf("Len = %d", n)
	}
}

func TestLRUFlush(t *testing.T) {
	c := NewLRU[int, int](8)
	for i := 0; i < 5; i++ {
		c.Put(i, i)
	}
	c.Flush()
	if n := c.Len(); n != 0 {
		t.Fatalf("Len after flush = %d", n)
	}
	if _, ok := c.Get(3); ok {
		t.Fatal("entry survived flush")
	}

	// Flush drops entries only: hits, misses and evictions survive it.
	for i := 0; i < 10; i++ {
		c.Put(i, i) // 10 keys into 8 slots: 2 evictions
	}
	c.Get(9)
	before := c.Stats()
	if before.Hits != 1 || before.Misses != 1 || before.Evictions != 2 {
		t.Fatalf("stats before the second flush = %+v", before)
	}
	if n := c.Flush(); n != 8 {
		t.Fatalf("Flush dropped %d entries, want 8", n)
	}
	after := c.Stats()
	before.Entries = 0
	if after != before {
		t.Fatalf("stats after flush = %+v, want %+v", after, before)
	}
}

// TestLRUAllocations pins the cost of the serve path's two calls in a
// full cache. Get allocates nothing, hit or miss; mtlint's zeroalloc
// cannot check it, because a generic body compiles only where it is
// instantiated, so this test is Get's only allocation gate. A Put of a
// new key allocates its list element and entry, and evicting the
// oldest allocates nothing; a Put that copied the whole map would
// allocate every bucket again.
func TestLRUAllocations(t *testing.T) {
	const capacity = 4096
	c := NewLRU[int, int](capacity)
	for i := 0; i < capacity; i++ {
		c.Put(i, i)
	}
	if allocs := testing.AllocsPerRun(100, func() { c.Get(17); c.Get(-1) }); allocs != 0 {
		t.Errorf("a Get hit and a Get miss allocate %v objects, want 0", allocs)
	}
	next := capacity
	allocs := testing.AllocsPerRun(100, func() {
		c.Put(next, next)
		next++
	})
	if allocs > 2 {
		t.Fatalf("Put of a new key into a full %d-entry cache allocates %v objects, want at most 2", capacity, allocs)
	}
	if s := c.Stats(); s.Entries != capacity || s.Evictions != 101 {
		t.Fatalf("stats = %+v, want %d entries and 101 evictions", s, capacity)
	}
}

// TestLRUConcurrent hammers a small cache from many goroutines so the
// race detector can see Gets, Puts and evictions interleave on the map
// and the recency list. Every value is a pure function of its key, so
// any hit must return the key's own value regardless of eviction
// pressure.
func TestLRUConcurrent(t *testing.T) {
	c := NewLRU[int, int](16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := (seed*31 + i) % 64
				if v, ok := c.Get(k); ok && v != k*7 {
					panic(fmt.Sprintf("key %d returned foreign value %d", k, v))
				}
				c.Put(k, k*7)
			}
		}(g)
	}
	wg.Wait()
	if n := c.Len(); n > 16 {
		t.Fatalf("cache exceeded its bound: %d entries", n)
	}
	if s := c.Stats(); s.Evictions == 0 {
		t.Fatalf("expected evictions under pressure, stats = %+v", s)
	}

	// Distinct keys that exactly fill the cache: nothing is evicted, so
	// every concurrent insert must survive and read back. A Put that
	// writes the map or the list without the lock races the other
	// goroutines' Gets and Puts, and can lose inserts.
	full := NewLRU[int, int](800)
	start := make(chan struct{})
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < 100; i++ {
				k := g*100 + i
				full.Put(k, k*7)
				if v, ok := full.Get(k); !ok || v != k*7 {
					t.Errorf("Get(%d) after its Put = (%d, %v), want (%d, true)", k, v, ok, k*7)
					return
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
	if n := full.Len(); n != 800 {
		t.Fatalf("%d entries after 800 distinct concurrent Puts into an 800-entry cache, want 800", n)
	}
}
