package core

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"rqm/internal/quantizer"
)

// BaseErrorBound returns the error bound the profile uses as the Eq. 2
// extrapolation base: a tight bound (1e-7 of the value range, the same base
// SZ3's sampler uses), raised if necessary so that the 99.5th-percentile
// prediction error still maps to an in-range quantization code — Eq. 2's
// derivation assumes the histogram keeps (almost) all its mass.
func (p *Profile) BaseErrorBound() float64 {
	eb := p.Range * 1e-7
	if eb <= 0 {
		eb = 1e-12
	}
	if q := p.quantileAbs(0.995); q > 0 {
		if minEB := q / (1.8 * quantizer.DefaultRadius); eb < minEB {
			eb = minEB
		}
	}
	return eb
}

// ErrorBoundForBitRate solves the inverse ratio problem: the absolute error
// bound whose modeled *Huffman* bit-rate matches target (bits per value).
// It follows the paper: Eq. 2 (e* = 2^(B−B*)·e) from a profiled base pair in
// the high-rate regime, and interpolation over the p0-anchor points
// (0.5/0.8/0.95) in the low-rate regime where Eq. 3's approximation fails.
// Each closed-form result is verified against the model; if the Eq. 2/3
// approximations are off for this error distribution, the solver falls back
// to geometric bisection on the model itself (one EstimateAt per probe).
func (p *Profile) ErrorBoundForBitRate(target float64) (float64, error) {
	if !(target > 0) {
		return 0, fmt.Errorf("core: target bit-rate must be positive, got %v", target)
	}
	const tol = 0.25 // bits
	// Fast path: Eq. 2 extrapolation from the profiled base pair.
	base := p.BaseErrorBound()
	baseB := p.EstimateAt(base).HuffmanBitRate
	e := math.Exp2(baseB-target) * base
	if est := p.EstimateAt(e); math.Abs(est.HuffmanBitRate-target) <= tol &&
		est.ZeroShare <= anchorP0[0] {
		return e, nil
	}
	// Low-rate regime: anchor interpolation between (B, log e) points
	// profiled at the configured central-bin shares.
	if eAnchor, ok := p.anchorInterpolate(target); ok {
		if math.Abs(p.EstimateAt(eAnchor).HuffmanBitRate-target) <= tol {
			return eAnchor, nil
		}
	}
	// Robust fallback: invert the model numerically.
	return p.solveMonotone(target, func(eb float64) float64 { return p.EstimateAt(eb).HuffmanBitRate })
}

// anchorInterpolate implements the paper's low-bit-rate handling: profile
// the histogram at central-bin shares p0 ∈ anchorP0 (by construction the
// error bound with share q is the q-quantile of |errors|), evaluate Eq. 1 at
// each, and interpolate log(eb) against bit-rate.
func (p *Profile) anchorInterpolate(target float64) (float64, bool) {
	type anchor struct{ b, loge float64 }
	var anchors []anchor
	for _, q := range anchorP0 {
		eb := p.quantileAbs(q)
		if eb <= 0 {
			continue
		}
		anchors = append(anchors, anchor{p.EstimateAt(eb).HuffmanBitRate, math.Log(eb)})
	}
	if len(anchors) == 0 {
		return 0, false
	}
	sort.Slice(anchors, func(i, j int) bool { return anchors[i].b > anchors[j].b })
	uniq := anchors[:1]
	for _, a := range anchors[1:] {
		if a.b < uniq[len(uniq)-1].b-1e-12 {
			uniq = append(uniq, a)
		}
	}
	anchors = uniq
	if target > anchors[0].b || len(anchors) == 1 {
		return 0, false
	}
	last := anchors[len(anchors)-1]
	if target <= last.b {
		prev := anchors[len(anchors)-2]
		slope := (last.loge - prev.loge) / (prev.b - last.b)
		return math.Exp(last.loge + slope*(last.b-target)), true
	}
	for i := 0; i+1 < len(anchors); i++ {
		hi, lo := anchors[i], anchors[i+1]
		if target <= hi.b && target >= lo.b {
			t := (hi.b - target) / (hi.b - lo.b)
			return math.Exp(hi.loge + t*(lo.loge-hi.loge)), true
		}
	}
	return 0, false
}

// ErrorBoundForRatio solves for a target overall compression ratio by
// inverting the total-bit-rate model with bisection (monotone in eb).
func (p *Profile) ErrorBoundForRatio(targetRatio float64) (float64, error) {
	if !(targetRatio > 1) {
		return 0, fmt.Errorf("core: target ratio must exceed 1, got %v", targetRatio)
	}
	targetBits := float64(p.OrigBits) / targetRatio
	return p.solveMonotone(targetBits, func(eb float64) float64 { return p.EstimateAt(eb).TotalBitRate })
}

// ErrorBoundForPSNR solves for a target PSNR (dB) using the refined error
// distribution; the result is the loosest bound whose modeled PSNR still
// meets the target. PSNR reads no histogram, so each probe is two binary
// searches: O(probes·log n) for the solve.
func (p *Profile) ErrorBoundForPSNR(target float64) (float64, error) {
	if math.IsNaN(target) {
		return 0, errors.New("core: target PSNR is NaN")
	}
	return p.solveMonotone(target, p.psnrAt)
}

// solveMonotone bisects the error bound so that metric(eb) hits target. The
// metric is the one Estimate field the solve reads, computed however cheaply
// that field allows; it must be monotone decreasing in eb (bit-rates and
// PSNR are, within the full-mass regime enforced by the lower bracket).
func (p *Profile) solveMonotone(target float64, metric func(eb float64) float64) (float64, error) {
	lo := p.Range * 1e-12
	// Keep the bracket inside the regime where (nearly) no sample falls out
	// of the quantizer range; below it the Huffman histogram loses mass and
	// the bit-rate metric stops being monotone.
	if q := p.quantileAbs(1.0); q > 0 {
		if minEB := q / (1.8 * quantizer.DefaultRadius); lo < minEB {
			lo = minEB
		}
	}
	hi := p.Range
	if hi <= 0 {
		return 0, errors.New("core: degenerate value range")
	}
	if lo <= 0 {
		lo = 1e-300
	}
	if hi <= lo {
		hi = lo * 2
	}
	mLo := metric(lo) // largest metric value (tight bound)
	mHi := metric(hi) // smallest
	if target > mLo {
		return lo, nil // cannot do better than the tightest bound
	}
	if target < mHi {
		return hi, nil
	}
	for iter := 0; iter < 80; iter++ {
		mid := math.Sqrt(lo * hi) // geometric bisection: eb spans decades
		if metric(mid) >= target {
			lo = mid
		} else {
			hi = mid
		}
		if hi/lo < 1+1e-9 {
			break
		}
	}
	return lo, nil
}
