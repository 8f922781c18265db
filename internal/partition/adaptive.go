package partition

import (
	"errors"
	"fmt"
	"math"

	"rqm/internal/core"
	"rqm/internal/grid"
	"rqm/internal/stats"
)

// AdaptiveBound is the per-region error-bound policy: a region is profiled
// with the ratio-quality model (one cheap sampling pass, no compression
// run), the model's inverse solver picks the bound that meets the target on
// that region, and the region is compressed in ABS mode at the solved bound.
// Smooth regions therefore get loose bounds and complex regions tight ones,
// while every region tracks the same global ratio or quality target — the
// paper's in-situ error-bound optimization running inside the pipeline.
//
// The stream writer's workers apply the policy to every region its
// partitioner plans — fixed slabs under FixedSlab, variance-guided leaves
// under VarianceQuadtree — through one function, Env.SolveRegion.
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

// SolveRegion solves env.Policy (which must be set) for one region, profiled
// as its own 1-D field, and returns the absolute bound with the profile it
// was solved on. It is the one per-region solve: the stream writer's workers
// call it for every chunk, and `rqmodel -chunk-plan` prints what it returns.
//
// windowRange is the value range of the window the region was planned from,
// or 0 when the region is its whole window (every fixed slab is). A PSNR
// target is judged against the window's range, but the model normalizes PSNR
// by the profiled region's own range, so a region of range r in a
// multi-region window is solved at T + 20·log₁₀(r / windowRange) dB (at
// least 1): the error budget it may spend while the window still meets T.
// A region that is its whole window is solved at the raw target. The
// region's range r is its profile's Range, read off the profile's own scan.
//
// A region the model cannot profile or solve (constant data, too few
// samples) falls back to a tight bound relative to its own value range, with
// a nil profile, so a pathological region never fails the stream.
func (env Env) SolveRegion(vals []float64, windowRange float64) (float64, *core.Profile) {
	mopts := env.Mopts
	if mopts.SampleRate <= 0 || mopts.SampleRate > 1 {
		mopts.SampleRate = 0.01
	}
	if float64(len(vals))*mopts.SampleRate < minAdaptiveSamples {
		mopts.SampleRate = math.Min(1, minAdaptiveSamples/float64(len(vals)))
	}
	f, err := grid.FromData("", env.Prec, vals, len(vals))
	var eb float64
	var p *core.Profile
	if err == nil {
		p, err = env.Codec.Profile(f, env.Copts, mopts)
	}
	if err == nil {
		pol := *env.Policy
		if pol.TargetPSNR > 0 && windowRange > 0 && p.Range > 0 {
			pol.TargetPSNR = max(pol.TargetPSNR+20*math.Log10(p.Range/windowRange), 1)
		}
		if pol.TargetRatio > 0 {
			eb, err = p.ErrorBoundForRatio(pol.TargetRatio)
		} else {
			eb, err = p.ErrorBoundForPSNR(pol.TargetPSNR)
		}
	}
	if err != nil || !(eb > 0) {
		lo, hi := stats.MinMax(vals)
		if eb = (hi - lo) * 1e-6; eb <= 0 {
			eb = 1e-12
		}
		return eb, nil
	}
	return eb, p
}
