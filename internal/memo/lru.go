package memo

import (
	"sync"
	"sync/atomic"
)

// LRU is a bounded, approximately least-recently-used cache built on
// the same copy-on-write discipline as Map: lookups are one atomic
// snapshot load plus a plain map read, and never take a lock. Recency
// is tracked per entry with an atomic logical clock bumped on every
// hit, so a read touches only its own entry — the published map is
// never written after publication. Inserts copy the map under a mutex
// and evict the stalest entries while the cache exceeds its bound;
// with the read-mostly result caches this serves (a handful of inserts
// per miss, millions of probe hits) the copies are noise.
//
// Unlike Map, an LRU is sized at construction and keeps hit / miss /
// eviction counters: it fronts content-addressed result stores whose
// working set is open-ended (every distinct request spec is a new
// key), where Map's grow-only snapshot would leak without bound.
//
// Eviction order depends on observed access order and is therefore not
// deterministic under concurrency — which is exactly why an LRU may
// only ever cache values that are pure functions of their key: a probe
// that misses recomputes the same bytes the evicted entry held, so
// cache state is invisible in results and shows up only in latency.
type LRU[K comparable, V any] struct {
	cap   int
	clock atomic.Int64
	snap  atomic.Pointer[map[K]*lruEntry[V]]
	mu    sync.Mutex // serializes writers; readers never take it

	hits, misses, evictions atomic.Int64
}

// lruEntry pairs a cached value with its last-touch tick. Entries are
// shared by pointer across map snapshots, so a hit's touch update is
// visible to the evictor without republishing anything.
type lruEntry[V any] struct {
	v     V
	touch atomic.Int64
}

// NewLRU returns a cache bounded to at most capacity entries.
// capacity <= 0 disables the cache: every Get misses and Put is a
// no-op (the shape the serve layer uses to measure cold paths).
func NewLRU[K comparable, V any](capacity int) *LRU[K, V] {
	return &LRU[K, V]{cap: capacity}
}

// Get returns the value cached under k and bumps its recency. The
// miss/hit counters are updated either way.
//
//mtlint:zeroalloc
func (c *LRU[K, V]) Get(k K) (V, bool) {
	if p := c.snap.Load(); p != nil {
		if e, ok := (*p)[k]; ok {
			e.touch.Store(c.clock.Add(1))
			c.hits.Add(1)
			return e.v, true
		}
	}
	c.misses.Add(1)
	var zero V
	return zero, false
}

// Put publishes v under k, replacing any existing entry, and evicts
// the stalest entries while the cache is over capacity. A disabled
// cache (capacity <= 0) ignores the call.
func (c *LRU[K, V]) Put(k K, v V) {
	if c.cap <= 0 {
		return
	}
	e := &lruEntry[V]{v: v}
	e.touch.Store(c.clock.Add(1))
	c.mu.Lock()
	defer c.mu.Unlock()
	var next map[K]*lruEntry[V]
	if p := c.snap.Load(); p != nil {
		next = make(map[K]*lruEntry[V], len(*p)+1)
		//mtlint:allow maprange copy-on-write snapshot clone; insertion order of a map copy is invisible to readers
		for key, val := range *p {
			next[key] = val
		}
	} else {
		next = make(map[K]*lruEntry[V], 1)
	}
	next[k] = e
	for len(next) > c.cap {
		var (
			oldest    K
			oldestAge int64
			found     bool
		)
		//mtlint:allow maprange min-scan over touch ticks; the selected minimum is order-insensitive (ties broken arbitrarily among equally stale entries, which eviction tolerates by contract)
		for key, val := range next {
			age := val.touch.Load()
			if !found || age < oldestAge {
				oldest, oldestAge, found = key, age, true
			}
		}
		delete(next, oldest)
		c.evictions.Add(1)
	}
	c.snap.Store(&next)
}

// Len returns the number of cached entries in the current snapshot.
func (c *LRU[K, V]) Len() int {
	if p := c.snap.Load(); p != nil {
		return len(*p)
	}
	return 0
}

// Flush empties the cache and reports how many entries it dropped.
// Counters are preserved; only entries drop.
func (c *LRU[K, V]) Flush() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	if p := c.snap.Load(); p != nil {
		n = len(*p)
	}
	empty := map[K]*lruEntry[V]{}
	c.snap.Store(&empty)
	return n
}

// LRUStats is a point-in-time counter snapshot.
type LRUStats struct {
	Entries   int   `json:"entries"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
}

// Stats returns the current counter values.
func (c *LRU[K, V]) Stats() LRUStats {
	return LRUStats{
		Entries:   c.Len(),
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
	}
}
