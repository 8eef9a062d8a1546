//go:build amd64 && !noasm

package sparse

import (
	"testing"
	"unsafe"
)

// TestRowGroupOffsets pins the layout the AVX-512 kernel reads by
// offset: a group's rows at offset 0 as one 32-byte index vector, its
// lo and hi slot bounds, the group size, and the 32-byte column and
// 64-byte value slots it steps through.
func TestRowGroupOffsets(t *testing.T) {
	var g rowGroup
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"rows offset", unsafe.Offsetof(g.rows), 0},
		{"rows size", unsafe.Sizeof(g.rows), 32},
		{"lo offset", unsafe.Offsetof(g.lo), rowGroupLo},
		{"hi offset", unsafe.Offsetof(g.hi), rowGroupHi},
		{"group size", unsafe.Sizeof(g), rowGroupSize},
		{"column slot size", unsafe.Sizeof([groupWidth]int32{}), 32},
		{"value slot size", unsafe.Sizeof([groupWidth]float64{}), 64},
	} {
		if c.got != c.want {
			t.Errorf("rowGroup %s is %d, the kernel assumes %d", c.name, c.got, c.want)
		}
	}
}
