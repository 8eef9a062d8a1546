package floorplan

import (
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestCMP4Valid(t *testing.T) {
	f := CMP4()
	if err := f.Validate(); err != nil {
		t.Fatalf("CMP4 invalid: %v", err)
	}
	if got := f.NumCores(); got != 4 {
		t.Errorf("NumCores = %d, want 4", got)
	}
	if got := len(f.Blocks); got != 4*11+1 {
		t.Errorf("block count = %d, want 45", got)
	}
	if c := f.Coverage(); math.Abs(c-1) > 1e-6 {
		t.Errorf("coverage = %v, want 1.0", c)
	}
}

func TestBaniasValid(t *testing.T) {
	f := Banias()
	if err := f.Validate(); err != nil {
		t.Fatalf("Banias invalid: %v", err)
	}
	if f.NumCores() != 1 {
		t.Errorf("NumCores = %d, want 1", f.NumCores())
	}
	if f.BlockIndex("diode_site") < 0 {
		t.Error("missing diode_site block")
	}
	if c := f.Coverage(); math.Abs(c-1) > 1e-6 {
		t.Errorf("coverage = %v, want 1.0", c)
	}
}

func TestEveryCoreHasWatchedHotspots(t *testing.T) {
	// §5.1: thermal sensors sit at the two register file units on each
	// core; the floorplan must provide both for every core.
	f := CMP4()
	for core := 0; core < 4; core++ {
		if f.FindCoreBlock(core, KindIntRegFile) < 0 {
			t.Errorf("core %d missing integer register file", core)
		}
		if f.FindCoreBlock(core, KindFPRegFile) < 0 {
			t.Errorf("core %d missing fp register file", core)
		}
	}
}

func TestFindCoreBlockMissing(t *testing.T) {
	f := CMP4()
	if got := f.FindCoreBlock(0, KindOther); got != -1 {
		t.Errorf("FindCoreBlock for absent kind = %d, want -1", got)
	}
	if got := f.FindCoreBlock(9, KindFXU); got != -1 {
		t.Errorf("FindCoreBlock for absent core = %d, want -1", got)
	}
}

// TestBlocksByCoreMatchesScan checks the one-pass owner index against
// a per-core scan of the floorplan, on the paper's part and on a
// generated grid: every block appears once, under its owner, in
// floorplan order.
func TestBlocksByCoreMatchesScan(t *testing.T) {
	grid, err := Grid(GridSpec{Rows: 3, Cols: 3, Pattern: PatternMixedRows})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []*Floorplan{CMP4(), Banias(), grid} {
		cores, shared := f.BlocksByCore()
		if len(cores) != f.NumCores() {
			t.Errorf("%s: %d core lists, want %d", f.Name, len(cores), f.NumCores())
		}
		scan := func(owner int) []int {
			var out []int
			for i, b := range f.Blocks {
				if b.Core == owner {
					out = append(out, i)
				}
			}
			return out
		}
		for c := range cores {
			if want := scan(c); !slices.Equal(cores[c], want) {
				t.Errorf("%s core %d: %v, want %v", f.Name, c, cores[c], want)
			}
		}
		if want := scan(SharedCore); !slices.Equal(shared, want) {
			t.Errorf("%s shared: %v, want %v", f.Name, shared, want)
		}
	}
}

func TestCoreBlocksCount(t *testing.T) {
	f := CMP4()
	for core := 0; core < 4; core++ {
		if got := len(f.CoreBlocks(core)); got != 11 {
			t.Errorf("core %d has %d blocks, want 11", core, got)
		}
	}
	// Shared L2 belongs to no core.
	for core := 0; core < 4; core++ {
		for _, i := range f.CoreBlocks(core) {
			if f.Blocks[i].Kind == KindL2 {
				t.Error("L2 attributed to a core")
			}
		}
	}
}

func TestSharedEdgeVertical(t *testing.T) {
	f := &Floorplan{Name: "t", ChipW: 4 * mm, ChipH: 2 * mm, Blocks: []Block{
		{Name: "a", X: 0, Y: 0, W: 2 * mm, H: 2 * mm},
		{Name: "b", X: 2 * mm, Y: 0.5 * mm, W: 2 * mm, H: 1 * mm},
	}}
	l, d := f.SharedEdge(0, 1)
	if math.Abs(l-1*mm) > 1e-12 {
		t.Errorf("shared length = %v, want 1mm", l)
	}
	if math.Abs(d-2*mm) > 1e-12 {
		t.Errorf("normal distance = %v, want 2mm", d)
	}
}

func TestSharedEdgeNone(t *testing.T) {
	f := &Floorplan{Name: "t", ChipW: 10 * mm, ChipH: 10 * mm, Blocks: []Block{
		{Name: "a", X: 0, Y: 0, W: 1 * mm, H: 1 * mm},
		{Name: "b", X: 5 * mm, Y: 5 * mm, W: 1 * mm, H: 1 * mm},
	}}
	if l, _ := f.SharedEdge(0, 1); l != 0 {
		t.Errorf("disjoint blocks report shared edge %v", l)
	}
}

func TestSharedEdgeCornerTouchIsNotAdjacent(t *testing.T) {
	f := &Floorplan{Name: "t", ChipW: 2 * mm, ChipH: 2 * mm, Blocks: []Block{
		{Name: "a", X: 0, Y: 0, W: 1 * mm, H: 1 * mm},
		{Name: "b", X: 1 * mm, Y: 1 * mm, W: 1 * mm, H: 1 * mm},
	}}
	if l, _ := f.SharedEdge(0, 1); l != 0 {
		t.Errorf("corner-touching blocks report shared edge %v", l)
	}
}

func TestAdjacencySymmetricAndComplete(t *testing.T) {
	f := CMP4()
	adj := f.Adjacencies()
	if len(adj) == 0 {
		t.Fatal("no adjacencies found")
	}
	// Each core's blocks must form a connected cluster with the L2 strip
	// reachable from every core (heat flows core→L2 laterally).
	l2 := f.BlockIndex("l2")
	reach := map[int]bool{l2: true}
	frontier := []int{l2}
	neighbors := map[int][]int{}
	for _, a := range adj {
		neighbors[a.I] = append(neighbors[a.I], a.J)
		neighbors[a.J] = append(neighbors[a.J], a.I)
	}
	for len(frontier) > 0 {
		n := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		for _, m := range neighbors[n] {
			if !reach[m] {
				reach[m] = true
				frontier = append(frontier, m)
			}
		}
	}
	for i := range f.Blocks {
		if !reach[i] {
			t.Errorf("block %q not laterally connected to the rest of the die", f.Blocks[i].Name)
		}
	}
}

func TestValidateCatchesOverlap(t *testing.T) {
	f := &Floorplan{Name: "bad", ChipW: 2 * mm, ChipH: 2 * mm, Blocks: []Block{
		{Name: "a", X: 0, Y: 0, W: 1.5 * mm, H: 1 * mm},
		{Name: "b", X: 1 * mm, Y: 0, W: 1 * mm, H: 1 * mm},
	}}
	if err := f.Validate(); err == nil {
		t.Error("overlap not detected")
	}
}

func TestValidateCatchesOutOfBounds(t *testing.T) {
	f := &Floorplan{Name: "bad", ChipW: 1 * mm, ChipH: 1 * mm, Blocks: []Block{
		{Name: "a", X: 0.5 * mm, Y: 0, W: 1 * mm, H: 1 * mm},
	}}
	if err := f.Validate(); err == nil {
		t.Error("out-of-bounds block not detected")
	}
}

func TestValidateCatchesDuplicateNames(t *testing.T) {
	f := &Floorplan{Name: "bad", ChipW: 4 * mm, ChipH: 1 * mm, Blocks: []Block{
		{Name: "a", X: 0, Y: 0, W: 1 * mm, H: 1 * mm},
		{Name: "a", X: 2 * mm, Y: 0, W: 1 * mm, H: 1 * mm},
	}}
	if err := f.Validate(); err == nil {
		t.Error("duplicate names not detected")
	}
}

func TestValidateCatchesEmptyAndBadDims(t *testing.T) {
	if err := (&Floorplan{Name: "e", ChipW: 1, ChipH: 1}).Validate(); err == nil {
		t.Error("empty floorplan not detected")
	}
	f := &Floorplan{Name: "z", ChipW: 0, ChipH: 1, Blocks: []Block{{Name: "a", W: 1, H: 1}}}
	if err := f.Validate(); err == nil {
		t.Error("zero chip width not detected")
	}
	g := &Floorplan{Name: "n", ChipW: 1, ChipH: 1, Blocks: []Block{{Name: "a", W: 0, H: 1}}}
	if err := g.Validate(); err == nil {
		t.Error("zero block width not detected")
	}
	h := &Floorplan{Name: "o", ChipW: 1, ChipH: 1, Blocks: []Block{{Name: "a", W: 1, H: 1, Core: -2}}}
	if err := h.Validate(); err == nil {
		t.Error("owner below SharedCore not detected")
	}
}

func TestBlockGeometryAccessors(t *testing.T) {
	b := Block{X: 1, Y: 2, W: 3, H: 4}
	if b.Area() != 12 {
		t.Errorf("Area = %v", b.Area())
	}
	if b.CenterX() != 2.5 || b.CenterY() != 4 {
		t.Errorf("center = (%v,%v)", b.CenterX(), b.CenterY())
	}
}

func TestUnitKindString(t *testing.T) {
	if KindIntRegFile.String() != "iregfile" {
		t.Errorf("got %q", KindIntRegFile.String())
	}
	if UnitKind(99).String() == "" {
		t.Error("unknown kind renders empty")
	}
}

// Property: shared-edge computation is symmetric in its arguments.
func TestSharedEdgeSymmetryProperty(t *testing.T) {
	f := CMP4()
	n := len(f.Blocks)
	check := func(i, j uint8) bool {
		a, b := int(i)%n, int(j)%n
		if a == b {
			return true
		}
		l1, d1 := f.SharedEdge(a, b)
		l2, d2 := f.SharedEdge(b, a)
		return l1 == l2 && d1 == d2
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestRenderFloorplan(t *testing.T) {
	out := CMP4().Render(64)
	if !strings.Contains(out, "cmp4") || !strings.Contains(out, "legend:") {
		t.Errorf("render missing header/legend:\n%s", out)
	}
	// Every block must appear in the legend.
	for _, b := range CMP4().Blocks {
		if !strings.Contains(out, b.Name) {
			t.Errorf("legend missing block %s", b.Name)
		}
	}
	// Tiny width clamps rather than panicking.
	if small := Banias().Render(1); small == "" {
		t.Error("small render empty")
	}
}
