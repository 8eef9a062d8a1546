package floorplan

import (
	"fmt"
	"strconv"
	"strings"

	"multitherm/internal/memo"
)

// Parametric many-core grid generator. The paper's own floorplan is the
// fixed 4-core PowerPC CMP; scaling its thermal-management questions to
// 16-1024 cores needs families of layouts that exist only by
// construction. The generator builds Rows x Cols grids of square core
// tiles in three heterogeneity patterns (echoing the mixed
// K6-III/K6-2/PowerPC grid of the ATMI exemplar) with optional
// per-position cooling, and memoizes the result so repeated calls with
// the same spec return the same *Floorplan pointer — which is what the
// thermal template and warmup caches key on.

// GridPattern selects how core classes are assigned to grid positions.
type GridPattern int

const (
	// PatternHomogeneous makes every tile a perf-class core.
	PatternHomogeneous GridPattern = iota
	// PatternCheckerboard alternates perf and eco cores by parity.
	PatternCheckerboard
	// PatternMixedRows cycles perf/mid/eco classes row by row, the
	// closest analogue of the exemplar's three-processor-type grid.
	PatternMixedRows
)

func (p GridPattern) String() string {
	switch p {
	case PatternHomogeneous:
		return "homogeneous"
	case PatternCheckerboard:
		return "checkerboard"
	case PatternMixedRows:
		return "mixedrows"
	}
	return fmt.Sprintf("GridPattern(%d)", int(p))
}

// CoolingPolicy selects how per-position cooling boost is distributed.
type CoolingPolicy int

const (
	// CoolingUniform applies no per-position boost.
	CoolingUniform CoolingPolicy = iota
	// CoolingEdgeBoost gives tiles on the grid rim extra conductance
	// to ambient (airflow reaches the periphery of the sink first).
	CoolingEdgeBoost
	// CoolingCenterBoost gives interior tiles the extra conductance
	// (e.g. a spot cooler over the die center).
	CoolingCenterBoost
)

func (c CoolingPolicy) String() string {
	switch c {
	case CoolingUniform:
		return "uniform"
	case CoolingEdgeBoost:
		return "edgeboost"
	case CoolingCenterBoost:
		return "centerboost"
	}
	return fmt.Sprintf("CoolingPolicy(%d)", int(c))
}

// GridSpec parameterizes a generated floorplan. The zero value is not
// valid; Rows and Cols must be at least 1. The struct is comparable and
// used as a memoization key, so equal specs yield identical pointers.
type GridSpec struct {
	Rows, Cols int
	Pattern    GridPattern
	Cooling    CoolingPolicy
	// BoostWK is the per-tile cooling boost in W/K applied by the
	// cooling policy; 0 selects a default of 0.5 W/K per boosted tile.
	BoostWK float64
}

// DefaultGridBoost is the per-tile cooling boost, in W/K, used when a
// spec selects a non-uniform cooling policy but leaves BoostWK zero.
const DefaultGridBoost = 0.5

// MaxGridCores bounds generated grids; 32x32 covers the 16-1024-core
// range the sparse solver targets.
const MaxGridCores = 1024

// gridTileSide is the edge length of one square core tile.
const gridTileSide = 2 * mm

// gridClass is one heterogeneous core flavor. All classes fill the
// tile exactly; they differ in how area is split between the execution
// strip and the cache/register blocks, and in the DVFS frequency cap
// the experiments apply per class.
type gridClass struct {
	name     string
	execH    float64 // height of the bottom fxu strip
	cacheW   float64 // width of the l1d block in the top region
	maxScale float64 // per-class DVFS cap, fraction of nominal
}

var gridClasses = [3]gridClass{
	{name: "perf", execH: 1.2 * mm, cacheW: 0.8 * mm, maxScale: 1.0},
	{name: "mid", execH: 1.0 * mm, cacheW: 1.0 * mm, maxScale: 0.85},
	{name: "eco", execH: 0.8 * mm, cacheW: 1.2 * mm, maxScale: 0.7},
}

// classAt maps a grid position to its core class index.
func classAt(spec GridSpec, r, c int) int {
	switch spec.Pattern {
	case PatternCheckerboard:
		if (r+c)%2 == 1 {
			return 2 // eco
		}
		return 0 // perf
	case PatternMixedRows:
		return r % 3
	default:
		return 0
	}
}

// boosted reports whether the tile at (r, c) receives the cooling
// boost under the spec's policy.
func boosted(spec GridSpec, r, c int) bool {
	onEdge := r == 0 || c == 0 || r == spec.Rows-1 || c == spec.Cols-1
	switch spec.Cooling {
	case CoolingEdgeBoost:
		return onEdge
	case CoolingCenterBoost:
		return !onEdge
	default:
		return false
	}
}

var gridCache memo.Map[GridSpec, *Floorplan]

// Grid returns the generated floorplan for spec, building and
// validating it on first use. Equal specs return the same pointer, so
// downstream pointer-keyed caches (thermal templates, warmup states)
// coalesce across callers.
func Grid(spec GridSpec) (*Floorplan, error) {
	return gridCache.LoadOrStore(spec, func() (*Floorplan, error) {
		return buildGrid(spec)
	})
}

func buildGrid(spec GridSpec) (*Floorplan, error) {
	if spec.Rows < 1 || spec.Cols < 1 {
		return nil, fmt.Errorf("floorplan: grid spec %dx%d: dimensions must be >= 1", spec.Rows, spec.Cols)
	}
	// Bound each dimension before multiplying: Rows*Cols on two large
	// ints can wrap negative (or small positive) and slip past the
	// product check into a multi-gigabyte build.
	if spec.Rows > MaxGridCores || spec.Cols > MaxGridCores || spec.Rows*spec.Cols > MaxGridCores {
		return nil, fmt.Errorf("floorplan: grid spec %dx%d exceeds the %d-core limit",
			spec.Rows, spec.Cols, MaxGridCores)
	}
	boost := spec.BoostWK
	if boost < 0 {
		return nil, fmt.Errorf("floorplan: grid spec %dx%d: negative cooling boost", spec.Rows, spec.Cols)
	}
	if boost == 0 {
		boost = DefaultGridBoost
	}
	fp := &Floorplan{
		Name:  fmt.Sprintf("grid%dx%d-%s-%s", spec.Rows, spec.Cols, spec.Pattern, spec.Cooling),
		ChipW: float64(spec.Cols) * gridTileSide,
		ChipH: float64(spec.Rows) * gridTileSide,
	}
	for r := 0; r < spec.Rows; r++ {
		for c := 0; c < spec.Cols; c++ {
			core := r*spec.Cols + c
			cls := gridClasses[classAt(spec, r, c)]
			x0 := float64(c) * gridTileSide
			y0 := float64(r) * gridTileSide
			var b float64
			if boosted(spec, r, c) {
				b = boost
			}
			fp.Blocks = append(fp.Blocks, tileBlocks(core, cls, x0, y0, b)...)
		}
	}
	if err := fp.Validate(); err != nil {
		return nil, err
	}
	return fp, nil
}

// tileBlocks lays out one core tile: an execution strip across the
// bottom, the L1D in the upper-left, and the two register files (the
// sensor-bearing hot spots, paper §5.1) stacked in the upper-right.
// The four rectangles tile the square exactly, so generated chips have
// coverage 1 and a connected conduction network.
func tileBlocks(core int, cls gridClass, x0, y0, boost float64) []Block {
	topH := gridTileSide - cls.execH
	regW := gridTileSide - cls.cacheW
	// The tile's cooling boost is split across its blocks by area so
	// the boost density is uniform over the tile.
	perArea := boost / (gridTileSide * gridTileSide)
	mk := func(suffix string, kind UnitKind, x, y, w, h float64) Block {
		return Block{
			Name: fmt.Sprintf("c%d_%s", core, suffix),
			Kind: kind, Core: core,
			X: x, Y: y, W: w, H: h,
			CoolingBoost: perArea * w * h,
		}
	}
	return []Block{
		mk("fxu", KindFXU, x0, y0, gridTileSide, cls.execH),
		mk("l1d", KindL1D, x0, y0+cls.execH, cls.cacheW, topH),
		mk("iregfile", KindIntRegFile, x0+cls.cacheW, y0+cls.execH, regW, topH/2),
		mk("fpregfile", KindFPRegFile, x0+cls.cacheW, y0+cls.execH+topH/2, regW, topH/2),
	}
}

// GridCoreScales returns the per-core DVFS frequency cap (fraction of
// nominal) implied by the spec's heterogeneity pattern, indexed by core
// number. Experiments convert these to their typed scale factors when
// wiring a simulation config.
func GridCoreScales(spec GridSpec) []float64 {
	out := make([]float64, spec.Rows*spec.Cols)
	for r := 0; r < spec.Rows; r++ {
		for c := 0; c < spec.Cols; c++ {
			out[r*spec.Cols+c] = gridClasses[classAt(spec, r, c)].maxScale
		}
	}
	return out
}

// ParseGridSpec parses a "RxC" string (e.g. "16x16") into a GridSpec
// with the mixed-rows pattern and edge-boost cooling defaults the
// many-core experiment sweeps.
func ParseGridSpec(s string) (GridSpec, error) {
	// Strict split + Atoi rather than Sscanf: Sscanf's "%dx%d" silently
	// accepts trailing garbage ("4x8x2", "4x8 ") and panics on nothing,
	// but reporting those as success builds the wrong grid.
	rs, cs, ok := strings.Cut(s, "x")
	if !ok {
		return GridSpec{}, fmt.Errorf("floorplan: cannot parse grid %q (want RxC, e.g. 16x16)", s)
	}
	rows, err := strconv.Atoi(rs)
	if err != nil {
		return GridSpec{}, fmt.Errorf("floorplan: cannot parse grid %q (want RxC, e.g. 16x16): %v", s, err)
	}
	cols, err := strconv.Atoi(cs)
	if err != nil {
		return GridSpec{}, fmt.Errorf("floorplan: cannot parse grid %q (want RxC, e.g. 16x16): %v", s, err)
	}
	spec := GridSpec{Rows: rows, Cols: cols, Pattern: PatternMixedRows, Cooling: CoolingEdgeBoost}
	if _, err := Grid(spec); err != nil {
		return GridSpec{}, err
	}
	return spec, nil
}
