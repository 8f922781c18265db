// Package predictor implements the three prediction schemes of the SZ
// family that the paper models: the Lorenzo predictor, the multilevel
// (spline) interpolation predictor, and the block-wise linear regression
// predictor. Each scheme provides two things:
//
//   - a deterministic walk over the field used by both compression and
//     decompression (prediction always reads previously *reconstructed*
//     values, so the decompressor can replay it bit-exactly), and
//   - the paper's sampling strategy (§III-C) that estimates the
//     prediction-error distribution from original values only, which is what
//     the ratio-quality model consumes.
package predictor

import (
	"fmt"
	"math"

	"rqm/internal/grid"
	"rqm/internal/stats"
)

// Kind enumerates the prediction schemes.
type Kind int

const (
	// Lorenzo is the order-1 Lorenzo predictor (rank 1–4).
	Lorenzo Kind = iota
	// Lorenzo2 is the order-2 Lorenzo predictor (1D only; used for particle
	// and time-series streams like HACC/Brown).
	Lorenzo2
	// Interpolation is SZ3-style multilevel linear interpolation.
	Interpolation
	// InterpolationCubic is the same walk with 4-point cubic interpolation
	// where enough neighbors exist (falls back to linear at boundaries).
	InterpolationCubic
	// Regression is the block-wise linear regression predictor (6^rank
	// blocks, coefficients stored as a side channel).
	Regression
)

// Transform labels ratio-quality profiles sampled from block-transform
// coefficients rather than prediction errors (internal/transform). It is not
// a prediction scheme — New, Kinds and ParseKind do not know it — but a
// profile's kind needs one printable name whichever codec built it.
const Transform Kind = 100

// String returns the scheme name.
func (k Kind) String() string {
	switch k {
	case Lorenzo:
		return "lorenzo"
	case Lorenzo2:
		return "lorenzo2"
	case Interpolation:
		return "interpolation"
	case InterpolationCubic:
		return "interpolation-cubic"
	case Regression:
		return "regression"
	case Transform:
		return "transform"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// ParseKind resolves a scheme name.
func ParseKind(s string) (Kind, error) {
	for _, k := range []Kind{Lorenzo, Lorenzo2, Interpolation, InterpolationCubic, Regression} {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("predictor: unknown kind %q", s)
}

// Visit is called once per sample in prediction order. It must write the
// reconstructed value into the walk's work buffer at idx (the Predictor
// reads it back for subsequent predictions).
type Visit func(idx int, pred float64)

// Predictor is one prediction scheme bound to no particular field; walks
// take dims and a work buffer explicitly.
type Predictor interface {
	// Kind returns the scheme identifier.
	Kind() Kind
	// Supports reports whether the scheme handles fields of the given rank.
	Supports(rank int) bool
	// CompressWalk visits every sample once. work holds original values on
	// entry; visit must store reconstructed values into work[idx]. The
	// returned aux bytes (possibly nil) must be given to DecompressWalk.
	CompressWalk(dims []int, work []float64, visit Visit) ([]byte, error)
	// DecompressWalk replays the identical order. work starts zeroed; visit
	// fills in reconstructed values.
	DecompressWalk(dims []int, work []float64, aux []byte, visit Visit) error
	// SampleErrors returns sampled prediction errors (predicted − original)
	// computed from original values only, using the scheme's sampling
	// strategy at the given rate, deterministically from seed.
	SampleErrors(f *grid.Field, rate float64, seed uint64) []float64
}

// New returns the predictor for a kind.
func New(kind Kind) (Predictor, error) {
	switch kind {
	case Lorenzo:
		return lorenzoPredictor{order: 1}, nil
	case Lorenzo2:
		return lorenzoPredictor{order: 2}, nil
	case Interpolation:
		return interpPredictor{cubic: false}, nil
	case InterpolationCubic:
		return interpPredictor{cubic: true}, nil
	case Regression:
		return regressionPredictor{}, nil
	}
	return nil, fmt.Errorf("predictor: unknown kind %d", int(kind))
}

// Kinds lists all implemented predictor kinds.
func Kinds() []Kind {
	return []Kind{Lorenzo, Lorenzo2, Interpolation, InterpolationCubic, Regression}
}

// strides returns row-major strides for dims.
func strides(dims []int) []int {
	s := make([]int, len(dims))
	acc := 1
	for i := len(dims) - 1; i >= 0; i-- {
		s[i] = acc
		acc *= dims[i]
	}
	return s
}

func totalLen(dims []int) int {
	n := 1
	for _, d := range dims {
		n *= d
	}
	return n
}

// sampleCap bounds sample slice pre-allocation.
func sampleCap(n int, rate float64) int {
	c := int(rate*float64(n)) + 16
	if c > n {
		c = n
	}
	return c
}

// checkWalkArgs validates the shared walk preconditions.
func checkWalkArgs(p Predictor, dims []int, work []float64) error {
	if !p.Supports(len(dims)) {
		return fmt.Errorf("predictor: %s does not support rank %d", p.Kind(), len(dims))
	}
	if totalLen(dims) != len(work) {
		return fmt.Errorf("predictor: work length %d does not match dims %v", len(work), dims)
	}
	return nil
}

// meanAbs is a small shared helper for tests and diagnostics.
func meanAbs(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += math.Abs(x)
	}
	return s / float64(len(xs))
}

var _ = stats.MinMax // keep import stable while files are split
