package partition

import (
	"errors"
	"fmt"
	"math"

	"rqm/internal/codec"
	"rqm/internal/core"
	"rqm/internal/grid"
)

// AdaptiveBound is the per-region error-bound policy: a region is profiled
// with the ratio-quality model (one cheap sampling pass, no compression
// run), the model's inverse solver picks the bound that meets the target on
// that region, and the region is compressed in ABS mode at the solved bound.
// Smooth regions therefore get loose bounds and complex regions tight ones,
// while every region tracks the same global ratio or quality target — the
// paper's in-situ error-bound optimization running inside the pipeline.
//
// The stream writer applies the policy to whatever regions its partitioner
// plans: fixed slabs under FixedSlab (the historical per-chunk adaptive
// mode), variance-guided leaves under VarianceQuadtree.
//
// Exactly one of TargetRatio and TargetPSNR must be set.
type AdaptiveBound struct {
	// TargetRatio aims each region at this compression ratio (> 1).
	TargetRatio float64
	// TargetPSNR aims each region at this reconstruction quality in dB (> 0).
	TargetPSNR float64
}

// Validate checks the policy is well-formed.
func (a AdaptiveBound) Validate() error {
	hasRatio := a.TargetRatio != 0
	hasPSNR := a.TargetPSNR != 0
	if hasRatio == hasPSNR {
		return errors.New("stream: AdaptiveBound needs exactly one of TargetRatio and TargetPSNR")
	}
	if hasRatio && a.TargetRatio <= 1 {
		return fmt.Errorf("stream: AdaptiveBound.TargetRatio must exceed 1, got %v", a.TargetRatio)
	}
	if hasPSNR && a.TargetPSNR <= 0 {
		return fmt.Errorf("stream: AdaptiveBound.TargetPSNR must be positive, got %v", a.TargetPSNR)
	}
	return nil
}

// minAdaptiveSamples floors the per-region profile size: at the paper's 1%
// default a small region would profile from a handful of samples and the
// solved bound would be noise, so the rate is raised until the region
// contributes at least this many.
const minAdaptiveSamples = 256

// BoundFor solves the policy for one region. Degenerate regions the model
// cannot profile (constant data, too few samples) fall back to a tight
// bound relative to the region's value range, so a pathological region never
// fails the stream.
func (a AdaptiveBound) BoundFor(c codec.Codec, f *grid.Field, copts codec.Options, mopts core.Options) float64 {
	if mopts.SampleRate <= 0 || mopts.SampleRate > 1 {
		mopts.SampleRate = 0.01
	}
	if float64(f.Len())*mopts.SampleRate < minAdaptiveSamples {
		mopts.SampleRate = math.Min(1, minAdaptiveSamples/float64(f.Len()))
	}
	var eb float64
	p, err := c.Profile(f, copts, mopts)
	if err == nil {
		if a.TargetRatio > 0 {
			eb, err = p.ErrorBoundForRatio(a.TargetRatio)
		} else {
			eb, err = p.ErrorBoundForPSNR(a.TargetPSNR)
		}
	}
	if err != nil || !(eb > 0) {
		lo, hi := f.ValueRange()
		eb = (hi - lo) * 1e-6
		if eb <= 0 {
			eb = 1e-12
		}
	}
	return eb
}
