// Package predictor implements the prediction schemes of the SZ family
// that the paper models: the Lorenzo predictor (order 1 at rank 1–4, order 2
// in 1-D), the multilevel (spline) interpolation predictor, and the
// block-wise linear regression predictor. Each scheme provides two things:
//
//   - one deterministic walk over the field, shared by compression and
//     decompression: Encode and Decode run it with the caller's Emitter,
//     which quantizes or reconstructs each value in place, and prediction
//     always reads previously *reconstructed* values, so the decompressor
//     replays it bit-exactly; and
//   - the paper's sampling strategy (§III-C) that estimates the
//     prediction-error distribution from original values only, which is what
//     the ratio-quality model consumes.
//
// The walks are generic over the Emitter, so each is written once for both
// of the compressor's emitters. Emit is then called through the generic
// instantiation's dictionary, once per value; the emitters are too large to
// inline, so a direct call would cost a call per value as well. Only a loop
// with the emitter's body written into it makes no call: the compressor
// decodes the order-1 Lorenzo walk at rank 1, which every stream chunk
// takes, through such a loop, and Decode stays its reference.
package predictor

import (
	"fmt"

	"rqm/internal/grid"
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

// Emitter receives every prediction a walk makes, in walk order. Emit must
// leave the reconstructed value in work[idx] before it returns: later
// predictions read it.
type Emitter interface {
	Emit(idx int, pred float64)
}

// emitFunc adapts a function to Emitter.
type emitFunc func(idx int, pred float64)

func (f emitFunc) Emit(idx int, pred float64) { f(idx, pred) }

// Predictor is one prediction scheme bound to no particular field.
type Predictor interface {
	// Kind returns the scheme identifier.
	Kind() Kind
	// Supports reports whether the scheme handles fields of the given rank.
	Supports(rank int) bool
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

// Encode runs kind's walk over dims, visiting every sample once. work holds
// the original values on entry and e must store each reconstruction into
// work[idx]. The returned aux bytes (nil unless the scheme has a side
// channel) must be given to Decode.
func Encode[E Emitter](kind Kind, dims []int, work []float64, e E) ([]byte, error) {
	if err := checkWalkArgs(kind, dims, work); err != nil {
		return nil, err
	}
	if kind == Regression {
		return encodeRegression(dims, work, e), nil
	}
	walk(kind, dims, work, e)
	return nil, nil
}

// Decode replays Encode's walk in the identical order from its aux bytes.
// work starts zeroed and e fills in the reconstructed values.
func Decode[E Emitter](kind Kind, dims []int, work []float64, aux []byte, e E) error {
	if err := checkWalkArgs(kind, dims, work); err != nil {
		return err
	}
	if kind == Regression {
		return decodeRegression(dims, work, aux, e)
	}
	walk(kind, dims, work, e)
	return nil
}

// walk dispatches the schemes without a side channel on kind and rank.
func walk[E Emitter](kind Kind, dims []int, work []float64, e E) {
	switch {
	case kind == Interpolation || kind == InterpolationCubic:
		walkInterp(dims, work, kind == InterpolationCubic, e)
	case kind == Lorenzo2:
		walkLorenzo2(dims[0], work, e)
	case len(dims) == 1:
		walkLorenzo1D(dims[0], work, e)
	case len(dims) == 2:
		walkLorenzo2D(dims, work, e)
	case len(dims) == 3:
		walkLorenzo3D(dims, work, e)
	default:
		walkLorenzoND(dims, work, e)
	}
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
func checkWalkArgs(kind Kind, dims []int, work []float64) error {
	p, err := New(kind)
	if err != nil {
		return err
	}
	if !p.Supports(len(dims)) {
		return fmt.Errorf("predictor: %s does not support rank %d", kind, len(dims))
	}
	if totalLen(dims) != len(work) {
		return fmt.Errorf("predictor: work length %d does not match dims %v", len(work), dims)
	}
	return nil
}
