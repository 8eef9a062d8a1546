package memo

import (
	"container/list"
	"sync"
)

// LRU is a bounded least-recently-used cache: a map into a recency
// list, both under one mutex, so Get, Put and eviction are O(1).
//
// Unlike Map, an LRU is sized at construction and keeps hit / miss /
// eviction counters: it fronts result stores whose working set is
// open-ended (thermald keys each finished cell by its normalized
// request spec, and every distinct spec is a new key), where Map's
// grow-only store would leak without bound.
//
// Eviction order depends on observed access order and is therefore not
// deterministic under concurrency — which is exactly why an LRU may
// only ever cache values that are pure functions of their key: a probe
// that misses recomputes the same bytes the evicted entry held, so
// cache state is invisible in results and shows up only in latency.
type LRU[K comparable, V any] struct {
	cap int

	mu      sync.Mutex
	entries map[K]*list.Element // each Value is a *lruEntry[K, V]
	recency list.List           // most recently used at the front

	hits, misses, evictions int64
}

// lruEntry is one cached pair; eviction reads its key to delete it from the map.
type lruEntry[K comparable, V any] struct {
	k K
	v V
}

// NewLRU returns a cache bounded to at most capacity entries.
// capacity <= 0 disables the cache: every Get misses and Put is a
// no-op (the shape the serve layer uses to measure cold paths).
func NewLRU[K comparable, V any](capacity int) *LRU[K, V] {
	return &LRU[K, V]{cap: capacity}
}

// Get returns the value cached under k and marks it most recently
// used. The miss/hit counters are updated either way. It allocates
// nothing, hit or miss (TestLRUAllocations).
func (c *LRU[K, V]) Get(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[k]; ok {
		c.recency.MoveToFront(el)
		c.hits++
		return el.Value.(*lruEntry[K, V]).v, true
	}
	c.misses++
	var zero V
	return zero, false
}

// Put stores v under k as the most recently used entry, replacing any
// existing value, and evicts the least recently used entry once the
// cache is over capacity. A disabled cache (capacity <= 0) ignores it.
func (c *LRU[K, V]) Put(k K, v V) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[k]; ok {
		el.Value.(*lruEntry[K, V]).v = v
		c.recency.MoveToFront(el)
		return
	}
	if c.entries == nil {
		c.entries = make(map[K]*list.Element)
	}
	c.entries[k] = c.recency.PushFront(&lruEntry[K, V]{k: k, v: v})
	if c.recency.Len() > c.cap {
		oldest := c.recency.Remove(c.recency.Back()).(*lruEntry[K, V])
		delete(c.entries, oldest.k)
		c.evictions++
	}
}

// Len returns the number of cached entries.
func (c *LRU[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.recency.Len()
}

// Flush empties the cache and reports how many entries it dropped.
// Counters are preserved; only entries drop.
func (c *LRU[K, V]) Flush() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.recency.Len()
	c.entries = nil
	c.recency.Init()
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
	c.mu.Lock()
	defer c.mu.Unlock()
	return LRUStats{Entries: c.recency.Len(), Hits: c.hits, Misses: c.misses, Evictions: c.evictions}
}
