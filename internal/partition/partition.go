// Package partition is the pluggable chunk-planning layer of the stream
// pipeline: a Partitioner maps an incoming value window to an ordered
// sequence of regions, each an element range of the window. Partitioners plan
// geometry only; every region's error bound is solved by one function,
// Env.SolveRegion, which the stream writer's workers call as they compress.
// The writer compresses each region as one chunk of the RQCE v2 container —
// whose per-chunk bound records already encode a bound per region, so no
// partitioner can ever require a container format change.
//
// Two implementations ship with the package. FixedSlab is the historical
// planner extracted from the stream writer's accumulate-and-ship loop:
// fixed-size linear slabs, byte-identical to the pre-partition-layer writer.
// VarianceQuadtree is the spatially adaptive planner from the ROADMAP's
// "variance-guided region splitting" item: it builds summed-area tables over
// the window (stats.Integral) and recursively bisects where variance is
// non-uniform — quadtree/octree-style along the field's axes, O(1) per split
// decision — so that, once the model is solved per leaf, smooth regions get
// aggressive bounds while turbulent regions stay tight (Jin et al., ICDE
// 2022, §V-C applied per region instead of per fixed slab).
//
// Invariants every Partitioner must uphold (and downstream layers may rely
// on): a Plan's regions tile the window exactly — in order, gapless, no
// overlap — and every region is non-empty. Nothing may assume regions share
// one element count: chunk geometry is variable from here down.
package partition

import (
	"errors"
	"fmt"

	"rqm/internal/codec"
	"rqm/internal/core"
	"rqm/internal/grid"
)

// ErrNeedPolicy marks a partitioner that plans regions for per-region bounds
// being run without an AdaptiveBound policy to solve them against.
var ErrNeedPolicy = errors.New(
	"partition: per-region bound solving needs an AdaptiveBound policy: install one with WithAdaptive")

// Region is one planned chunk: a contiguous element range of the window.
type Region struct {
	// Off is the region's first element, relative to the window.
	Off int
	// Len is the element count; always positive.
	Len int
}

// Plan is the partitioning of one window.
type Plan struct {
	// Regions tile the window in order: gapless, non-overlapping, non-empty.
	Regions []Region
	// Splits counts the split decisions taken while planning (0 for fixed
	// slabs); exported by the serving layer as a partitioning-effort metric.
	Splits int
}

// Validate checks the tiling invariant against the window length n.
func (p Plan) Validate(n int) error {
	off := 0
	for i, r := range p.Regions {
		if r.Off != off || r.Len < 1 {
			return fmt.Errorf("partition: region %d [%d,+%d) breaks the tiling at offset %d",
				i, r.Off, r.Len, off)
		}
		off += r.Len
	}
	if off != n {
		return fmt.Errorf("partition: plan covers %d of %d values", off, n)
	}
	return nil
}

// Env is the stream context a partitioner plans against and SolveRegion
// solves in: the codec and model configuration for per-region solving, the
// declared field geometry, and the writer's nominal chunk size.
type Env struct {
	// Codec is the stream's backend codec.
	Codec codec.Codec
	// Copts is the stream's codec configuration.
	Copts codec.Options
	// Mopts tunes the ratio-quality model used for per-region solving.
	Mopts core.Options
	// Policy is the stream's adaptive bound policy (nil when none is set).
	Policy *AdaptiveBound
	// Prec is the stream precision.
	Prec grid.Precision
	// Dims is the declared field shape (nil = unknown, treated as 1-D).
	Dims []int
	// ChunkValues is the writer's nominal chunk size in values.
	ChunkValues int
}

// Partitioner plans the chunk sequence for a stream. Implementations must be
// deterministic: the same window and Env must yield the same Plan, so that
// recompaction can reproduce an archive's geometry from its manifest.
type Partitioner interface {
	// Name is the stable identifier recorded in store manifests.
	Name() string
	// WindowValues is how many values the writer buffers per Partition
	// call. Zero means the whole stream: the writer buffers everything and
	// plans once at Close — the mode spatial partitioners need, at the cost
	// of O(stream) memory instead of O(workers × chunk).
	WindowValues(env Env) int
	// Partition plans the regions for one buffered window.
	Partition(window []float64, env Env) (Plan, error)
}

// FixedSlab is the historical chunk planner: fixed-size linear slabs in
// stream order, one region per window. It is the writer's default and is
// byte-identical to the pre-partition-layer pipeline on every path.
type FixedSlab struct{}

// FixedSlabName is FixedSlab's manifest identifier.
const FixedSlabName = "fixed"

// Name implements Partitioner.
func (FixedSlab) Name() string { return FixedSlabName }

// WindowValues implements Partitioner: one slab per window, the writer's
// chunk size.
func (FixedSlab) WindowValues(env Env) int { return env.ChunkValues }

// Partition implements Partitioner: the window is the region.
func (FixedSlab) Partition(window []float64, env Env) (Plan, error) {
	if len(window) == 0 {
		return Plan{}, nil
	}
	return Plan{Regions: []Region{{Off: 0, Len: len(window)}}}, nil
}

// ByName resolves a manifest-recorded partitioner name to a zero-configured
// instance. The store uses it to reproduce an archive's partitioner during
// recompaction.
func ByName(name string) (Partitioner, error) {
	switch name {
	case FixedSlabName, "":
		return FixedSlab{}, nil
	case VarianceQuadtreeName:
		return VarianceQuadtree{}, nil
	}
	return nil, fmt.Errorf("partition: unknown partitioner %q", name)
}

// Known reports whether name identifies a registered partitioner ("" counts
// as FixedSlab). Manifest validation uses it to reject corrupt records.
func Known(name string) bool {
	_, err := ByName(name)
	return err == nil
}
