package partition

import (
	"fmt"
	"math"

	"rqm/internal/stats"
)

// VarianceQuadtreeName is VarianceQuadtree's manifest identifier.
const VarianceQuadtreeName = "variance-quadtree"

// VarianceQuadtree plans regions by recursive, variance-guided bisection of
// the field: it builds summed-area tables (stats.Integral) over the buffered
// window, then walks the field quadtree/octree-style — bisecting an axis
// range where the two halves' variances disagree, descending into single
// hyperplanes to keep splitting along inner axes — and emits each leaf as
// one region. It plans geometry only: the stream writer's workers solve each
// leaf's bound with Env.SolveRegion as they compress it. Every split decision
// is O(1) thanks to the tables, so planning costs one O(N) table build (its
// two tables on two goroutines) plus O(leaves) table queries, and each leaf's
// solve reads the leaf's range off the profile it builds anyway.
//
// Splits always land on axis-aligned prefix boxes (fixed outer coordinates,
// a range on one axis, full extents after it), which are exactly the boxes
// that stay contiguous in row-major order — so each leaf maps to one
// contiguous chunk of the container and the RQCE v2 format needs no change.
//
// The zero value is ready to use with the defaults below; it requires an
// AdaptiveBound policy in the stream (Env.Policy): leaves planned for their
// contrast are worth nothing compressed at one bound.
type VarianceQuadtree struct {
	// MinRegionValues floors the leaf size (default 4096): below it the
	// per-region model solve is noise and chunk framing overhead dominates.
	MinRegionValues int
	// MaxRegionValues caps the leaf size (default: the writer's chunk
	// size), bounding reader-side memory exactly like fixed chunking does.
	MaxRegionValues int
	// SplitFactor is the non-uniformity threshold: a range is bisected when
	// one half's standard deviation exceeds the other's by this factor
	// (default 2).
	SplitFactor float64
}

// DefaultMinRegionValues is the default leaf-size floor.
const DefaultMinRegionValues = 4096

// DefaultSplitFactor is the default non-uniformity threshold on the ratio
// of the two halves' standard deviations.
const DefaultSplitFactor = 2.0

// Name implements Partitioner.
func (VarianceQuadtree) Name() string { return VarianceQuadtreeName }

// WindowValues implements Partitioner: the whole stream, since spatial
// splitting needs the full field geometry.
func (VarianceQuadtree) WindowValues(Env) int { return 0 }

// Validate reports configuration errors at writer-construction time.
func (q VarianceQuadtree) Validate(env Env) error {
	if env.Policy == nil {
		return ErrNeedPolicy
	}
	if q.MinRegionValues < 0 || q.MaxRegionValues < 0 {
		return fmt.Errorf("partition: negative region size limits (%d, %d)",
			q.MinRegionValues, q.MaxRegionValues)
	}
	if q.SplitFactor < 0 || (q.SplitFactor > 0 && q.SplitFactor < 1) {
		return fmt.Errorf("partition: SplitFactor %v must be at least 1", q.SplitFactor)
	}
	return nil
}

// planDims maps the declared stream shape onto a rank-1..3 planning shape:
// unknown or mismatched shapes plan as 1-D, higher ranks fold their trailing
// axes into the third (a rank-4 field splits like a 3-D stack of its
// innermost planes), and leading size-1 axes are dropped so they cannot
// block splitting.
func planDims(dims []int, n int) []int {
	total := 1
	for _, d := range dims {
		total *= d
	}
	if len(dims) == 0 || total != n {
		return []int{n}
	}
	out := make([]int, 0, 3)
	for i, d := range dims {
		if len(out) == 0 && d == 1 && i < len(dims)-1 {
			continue // leading singleton axis
		}
		if len(out) < 3 {
			out = append(out, d)
		} else {
			out[2] *= d
		}
	}
	return out
}

// qplan carries one Partition call's recursion state.
type qplan struct {
	window    []float64
	dims      []int
	strideVal []int // values per index step along each axis
	it        *stats.Integral
	minLeaf   int
	maxLeaf   int
	factor2   float64 // SplitFactor², compared against variance ratios
	varFloor  float64 // variances at or below this count as "flat"
	regions   []Region
	splits    int
}

// Partition implements Partitioner.
func (q VarianceQuadtree) Partition(window []float64, env Env) (Plan, error) {
	if err := q.Validate(env); err != nil {
		return Plan{}, err
	}
	if len(window) == 0 {
		return Plan{}, nil
	}
	dims := planDims(env.Dims, len(window))
	it, err := stats.NewIntegral(window, dims...)
	if err != nil {
		return Plan{}, err
	}
	p := &qplan{
		window:    window,
		dims:      dims,
		strideVal: make([]int, len(dims)),
		it:        it,
		minLeaf:   q.MinRegionValues,
		maxLeaf:   q.MaxRegionValues,
		factor2:   q.SplitFactor * q.SplitFactor,
	}
	if p.minLeaf == 0 {
		p.minLeaf = DefaultMinRegionValues
	}
	if p.maxLeaf == 0 {
		p.maxLeaf = env.ChunkValues
	}
	if p.maxLeaf < 1 {
		p.maxLeaf = 1
	}
	if p.minLeaf > p.maxLeaf/2 {
		p.minLeaf = p.maxLeaf / 2
	}
	if p.minLeaf < 1 {
		p.minLeaf = 1
	}
	if q.SplitFactor == 0 {
		p.factor2 = DefaultSplitFactor * DefaultSplitFactor
	}
	s := 1
	for i := len(dims) - 1; i >= 0; i-- {
		p.strideVal[i] = s
		s *= dims[i]
	}
	// Variances within ~9 digits of the global variance's float noise are
	// indistinguishable from flat: the sum-of-squares identity behind the
	// tables cancels catastrophically on near-constant data.
	_, globalVar, err := it.MeanVar(make([]int, len(dims)), append([]int(nil), dims...))
	if err != nil {
		return Plan{}, err
	}
	p.varFloor = globalVar*1e-9 + math.SmallestNonzeroFloat64

	p.part(nil, 0, 0, dims[0])

	plan := Plan{Regions: p.regions, Splits: p.splits}
	if err := plan.Validate(len(window)); err != nil {
		return Plan{}, err
	}
	return plan, nil
}

// part recursively plans the range [a, b) on axis, with the outer axes fixed
// at prefix. Ranges bisect at the midpoint when forced (over MaxRegionValues)
// or when the halves' variances are non-uniform; a single index on a non-final
// axis descends one axis deeper, which keeps every region a contiguous
// prefix box.
func (p *qplan) part(prefix []int, axis, a, b int) {
	if b-a == 1 && axis+1 < len(p.dims) {
		child := make([]int, len(prefix)+1)
		copy(child, prefix)
		child[len(prefix)] = a
		p.part(child, axis+1, 0, p.dims[axis+1])
		return
	}
	n := (b - a) * p.strideVal[axis]
	mustSplit := n > p.maxLeaf && b-a >= 2
	if !mustSplit {
		mid := (a + b) / 2
		fits := b-a >= 2 && (mid-a)*p.strideVal[axis] >= p.minLeaf && (b-mid)*p.strideVal[axis] >= p.minLeaf
		if !fits || p.uniform(prefix, axis, a, mid, b) {
			p.emit(prefix, axis, a, b)
			return
		}
	}
	mid := (a + b) / 2
	p.splits++
	p.part(prefix, axis, a, mid)
	p.part(prefix, axis, mid, b)
}

// uniform reports whether the halves [a, mid) and [mid, b) have comparable
// statistics. Two measures feed the decision, both O(1) per half via the
// summed-area tables: the plain variance of the half (catches amplitude
// contrast, e.g. a quiet region next to an active one) and its local detail
// — the mean variance inside a handful of small probe cubes — which catches
// smooth-versus-turbulent contrast that global variance misses entirely (a
// normalized smooth ramp and white noise can share one variance while their
// compressibility differs by orders of magnitude). The range splits when
// either measure's ratio across the halves exceeds SplitFactor².
func (p *qplan) uniform(prefix []int, axis, a, mid, b int) bool {
	loL, hiL := p.box(prefix, axis, a, mid)
	loR, hiR := p.box(prefix, axis, mid, b)
	if !comparable(p.boxVariance(loL, hiL), p.boxVariance(loR, hiR), p.factor2, p.varFloor) {
		return false
	}
	return comparable(p.detail(loL, hiL), p.detail(loR, hiR), p.factor2, p.varFloor)
}

// comparable reports whether two non-negative measures are within factor2 of
// each other, with values at or below floor treated as flat.
func comparable(x, y, factor2, floor float64) bool {
	lo, hi := math.Min(x, y), math.Max(x, y)
	if hi <= floor {
		return true
	}
	return hi <= factor2*math.Max(lo, floor)
}

// box materializes the prefix box (prefix fixed, [a, b) on axis, full
// extents after) as table coordinates.
func (p *qplan) box(prefix []int, axis, a, b int) (lo, hi []int) {
	rank := len(p.dims)
	lo = make([]int, rank)
	hi = make([]int, rank)
	for i, c := range prefix {
		lo[i], hi[i] = c, c+1
	}
	lo[axis], hi[axis] = a, b
	for i := axis + 1; i < rank; i++ {
		lo[i], hi[i] = 0, p.dims[i]
	}
	return lo, hi
}

// boxVariance queries the summed-area tables for one box.
func (p *qplan) boxVariance(lo, hi []int) float64 {
	_, v, err := p.it.MeanVar(lo, hi)
	if err != nil {
		// Unreachable for in-range recursion; treat as flat so planning
		// never fails on a box-shape bug.
		return 0
	}
	return v
}

// detailEdge and detailProbes shape the local-detail probe: cubes of up to
// detailEdge elements per axis sampled at up to detailProbes positions per
// axis (start / middle / end of the box).
const (
	detailEdge   = 8
	detailProbes = 3
)

// detail estimates the box's high-frequency energy as the mean variance over
// a deterministic grid of small probe cubes inside it.
func (p *qplan) detail(lo, hi []int) float64 {
	rank := len(p.dims)
	var starts [3][]int
	edge := make([]int, rank)
	for i := 0; i < rank; i++ {
		ext := hi[i] - lo[i]
		e := detailEdge
		if e > ext {
			e = ext
		}
		edge[i] = e
		span := ext - e
		switch {
		case span <= 0:
			starts[i] = []int{lo[i]}
		case detailProbes == 3 && span >= 2:
			starts[i] = []int{lo[i], lo[i] + span/2, lo[i] + span}
		default:
			starts[i] = []int{lo[i], lo[i] + span}
		}
	}
	cubeLo := make([]int, rank)
	cubeHi := make([]int, rank)
	var sum float64
	var n int
	var walk func(axis int)
	walk = func(axis int) {
		if axis == rank {
			sum += p.boxVariance(cubeLo, cubeHi)
			n++
			return
		}
		for _, s := range starts[axis] {
			cubeLo[axis], cubeHi[axis] = s, s+edge[axis]
			walk(axis + 1)
		}
	}
	walk(0)
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// emit records the leaf covering prefix + [a, b) on axis as one region.
func (p *qplan) emit(prefix []int, axis, a, b int) {
	off := 0
	for i, c := range prefix {
		off += c * p.strideVal[i]
	}
	off += a * p.strideVal[axis]
	p.regions = append(p.regions, Region{Off: off, Len: (b - a) * p.strideVal[axis]})
}
