// Package hot exercises the zero-allocation gate: escapes inside
// marked functions are flagged, everything else is ignored.
package hot

// Sum is marked and clean: it only reads its arguments.
//
//mtlint:zeroalloc
func Sum(xs []float64) float64 {
	var s float64
	for _, v := range xs {
		s += v
	}
	return s
}

// Scale is marked and clean: it writes through a caller-owned buffer.
//
//mtlint:zeroalloc
func Scale(dst, src []float64, c float64) {
	for i, v := range src {
		dst[i] = c * v
	}
}

// Grow is marked and allocates: the make escapes through the return.
//
//mtlint:zeroalloc
func Grow(n int) []float64 {
	out := make([]float64, n) // want `heap allocation in zeroalloc function Grow`
	for i := range out {
		out[i] = float64(i)
	}
	return out
}

// Box is marked and moves its local to the heap.
//
//mtlint:zeroalloc
func Box() *float64 {
	v := 1.0 // want `heap allocation in zeroalloc function Box`
	return &v
}

// Push is marked and appends: growth past dst's capacity allocates in
// runtime.growslice, which the escape output never reports.
//
//mtlint:zeroalloc
func Push(dst []float64, v float64) []float64 {
	return append(dst, v) // want `append in zeroalloc function Push`
}

// Total is marked and calls a local function named append, which is
// not the builtin and is not flagged.
//
//mtlint:zeroalloc
func Total(xs []float64) float64 {
	append := func(s, v float64) float64 { return s + v }
	var s float64
	for _, v := range xs {
		s = append(s, v)
	}
	return s
}

// Max is marked and clean, but generic: its body compiles only where
// it is instantiated, so the escape output cannot vouch for it.
//
//mtlint:zeroalloc
func Max[T int | float64](xs []T) T { // want `cannot check generic function Max`
	var m T
	for _, v := range xs {
		m = max(m, v)
	}
	return m
}

// Ring is a generic type whose marked method cannot be checked either.
type Ring[T any] struct {
	buf  []T
	next int
}

// Put is marked and clean, but its receiver is generic.
//
//mtlint:zeroalloc
func (r *Ring[T]) Put(v T) { // want `cannot check generic function Put`
	r.buf[r.next] = v
	r.next = (r.next + 1) % len(r.buf)
}

// Extend appends but is unmarked, so it is not the analyzer's business.
func Extend(dst []float64, v float64) []float64 {
	return append(dst, v)
}

// Fine allocates but is unmarked, so it is not the analyzer's business.
func Fine(n int) []float64 {
	return make([]float64, n)
}
