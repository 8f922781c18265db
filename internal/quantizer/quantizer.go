// Package quantizer implements SZ-style linear-scaling quantization: the
// prediction error is mapped to an integer code on a uniform grid of width
// 2·eb, which guarantees |original − reconstructed| ≤ eb for in-range codes.
// Errors beyond the code radius are "unpredictable" and stored losslessly by
// the caller.
package quantizer

import (
	"fmt"
	"math"
)

// DefaultRadius matches SZ's default of 65536 bins, but Quantize accepts
// |code| = radius: the codes are the 65,537 in [−32768, 32768].
const DefaultRadius = 32768

// Quantizer performs linear-scaling quantization for one error bound.
type Quantizer struct {
	eb     float64
	twoEB  float64
	radius int32
}

// New constructs a quantizer. eb must be positive; radius must be >= 1
// (DefaultRadius when 0).
func New(eb float64, radius int32) (*Quantizer, error) {
	if !(eb > 0) || math.IsInf(eb, 0) {
		return nil, fmt.Errorf("quantizer: error bound must be positive and finite, got %v", eb)
	}
	if radius == 0 {
		radius = DefaultRadius
	}
	if radius < 1 {
		return nil, fmt.Errorf("quantizer: radius must be >= 1, got %d", radius)
	}
	return &Quantizer{eb: eb, twoEB: 2 * eb, radius: radius}, nil
}

// Radius returns the maximum |code| representable.
func (q *Quantizer) Radius() int32 { return q.radius }

// Quantize maps (value − pred) to the nearest code. ok is false when the
// code would fall outside ±radius or when the reconstruction would violate
// the error bound due to floating-point cancellation; in that case the
// caller must store the value exactly.
func (q *Quantizer) Quantize(value, pred float64) (code int32, recon float64, ok bool) {
	diff := value - pred
	c := math.Round(diff / q.twoEB)
	if c > float64(q.radius) || c < -float64(q.radius) || math.IsNaN(c) {
		return 0, value, false
	}
	code = int32(c)
	recon = pred + float64(float64(code)*q.twoEB)
	// Guard against precision loss on extreme magnitudes: re-check the bound.
	if math.Abs(value-recon) > q.eb {
		return 0, value, false
	}
	return code, recon, true
}

// CodeFor returns the code a prediction error `diff` maps to without range
// checking; used by the model when building estimated histograms. It is
// monotone in diff wherever the quotient is a number. A NaN quotient (a NaN
// error, or ±Inf over an overflowed 2·eb) has no code: it is filed at
// MinInt32, below every radius, as Quantize refuses it — stated here because
// int32(NaN) is whatever the GOARCH makes it (MinInt32 on amd64, 0 on arm64).
func CodeFor(diff, eb float64) int32 {
	c := math.Round(diff / (2 * eb))
	if c > math.MaxInt32 {
		return math.MaxInt32
	}
	if c < math.MinInt32 || c != c {
		return math.MinInt32
	}
	return int32(c)
}
