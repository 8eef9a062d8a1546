// Package memo provides the caches shared across goroutines: Map for
// the construction-time artifacts (thermal templates, exact-ZOH
// discretizations, recorded traces, warmup states, generated
// floorplans) and LRU for thermald's results. Each takes one
// sync.Mutex. The traffic is light: `cmd/sweep -ablations -simtime
// 0.02` makes about 5,800 Map lookups, all before the tick loop and
// none in it, and thermald makes one LRU lookup per request.
package memo

import "sync"

// Map is a memo from K to V. The zero value is an empty map ready for
// use. All methods are safe for concurrent use.
type Map[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]V
}

// Load returns the value memoized under k, if any.
func (m *Map[K, V]) Load(k K) (V, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	v, ok := m.m[k]
	return v, ok
}

// LoadOrStore returns the value memoized under k, building and
// storing it on first use. Racing first callers may build
// concurrently — build must be deterministic or at least yield
// interchangeable values — and the first store wins; every caller
// returns the winner. A build error is returned without storing
// anything, leaving the key open for a later retry.
func (m *Map[K, V]) LoadOrStore(k K, build func() (V, error)) (V, error) {
	if v, ok := m.Load(k); ok {
		return v, nil
	}
	// Build outside the lock: builds of distinct keys must not
	// serialize each other (a sweep discretizing several (Template, dt)
	// pairs pays each matrix exponential exactly once, in parallel), and
	// a build that reaches another memo must not deadlock.
	v, err := build()
	if err != nil {
		var zero V
		return zero, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if won, ok := m.m[k]; ok {
		return won, nil // a racing builder stored first; discard ours
	}
	if m.m == nil {
		m.m = make(map[K]V)
	}
	m.m[k] = v
	return v, nil
}

// Len returns the number of memoized entries.
func (m *Map[K, V]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.m)
}
