// Package memo provides a copy-on-write memoization map for the
// read-mostly caches on the sweep's hot construction paths: thermal
// templates, exact-ZOH discretizations, recorded traces, and warmup
// states. All of them share one access pattern — a brief build phase
// writes a handful of entries, then millions of lookups from every
// worker read them — which is exactly where copy-on-write wins: a
// lookup is one atomic pointer load plus a plain map read on an
// immutable snapshot. No mutex, no sync.Map dirty/read promotion
// bookkeeping, no interface boxing of hot values, and nothing for
// concurrent readers to contend on, because the published map is never
// written again.
//
// Writes pay for that: each store copies the map under a mutex. With
// caches that grow to tens of entries over a whole sweep the copies are
// noise; do not use this type for write-heavy maps.
package memo

import (
	"sync"
	"sync/atomic"
)

// Map is a copy-on-write map from K to V. The zero value is an empty
// map ready for use. All methods are safe for concurrent use.
type Map[K comparable, V any] struct {
	// snap is the published copy-on-write snapshot: lock-free readers
	// Load it, and only publication needs the writer lock.
	snap atomic.Pointer[map[K]V]
	mu   sync.Mutex // serializes writers; readers never take it
}

// Load returns the value memoized under k, if any.
func (m *Map[K, V]) Load(k K) (V, bool) {
	if p := m.snap.Load(); p != nil {
		v, ok := (*p)[k]
		return v, ok
	}
	var zero V
	return zero, false
}

// LoadOrStore returns the value memoized under k, building and
// publishing it on first use. Racing first callers may build
// concurrently — build must be deterministic or at least yield
// interchangeable values — and exactly one result wins the publish;
// every caller returns the winner. A build error is returned without
// publishing anything, leaving the key open for a later retry.
func (m *Map[K, V]) LoadOrStore(k K, build func() (V, error)) (V, error) {
	if v, ok := m.Load(k); ok {
		return v, nil
	}
	// Build outside the writer lock: builds of distinct keys must not
	// serialize each other (a sweep discretizing several (Template, dt)
	// pairs pays each matrix exponential exactly once, in parallel).
	v, err := build()
	if err != nil {
		var zero V
		return zero, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	var cur map[K]V
	if p := m.snap.Load(); p != nil {
		if won, ok := (*p)[k]; ok {
			return won, nil // a racing builder published first; discard ours
		}
		cur = *p
	}
	// Publish a copy with k added; the current snapshot is never written.
	next := make(map[K]V, len(cur)+1)
	//mtlint:allow maprange copy-on-write snapshot clone; insertion order of a map copy is invisible to readers
	for key, val := range cur {
		next[key] = val
	}
	next[k] = v
	m.snap.Store(&next)
	return v, nil
}

// Len returns the number of memoized entries in the current snapshot.
func (m *Map[K, V]) Len() int {
	if p := m.snap.Load(); p != nil {
		return len(*p)
	}
	return 0
}
