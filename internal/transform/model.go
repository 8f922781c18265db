package transform

import (
	"errors"
	"math"

	"rqm/internal/core"
	"rqm/internal/grid"
	"rqm/internal/predictor"
	"rqm/internal/stats"
)

// TransformKind labels transform-codec profiles in reports and on the wire.
// core applies no correction layer to it (correct: there is no
// reconstruction feedback in value-domain quantization).
const TransformKind = predictor.Transform

// NewProfile extends the ratio-quality model to the transform codec: it
// samples whole 4^rank blocks, applies the real-valued analog of the block
// transform to the *original* values, and hands the coefficient magnitudes
// to the core model. A coefficient of value c quantizes to ≈ round(c / 2e)
// at bound e — the same relationship prediction errors have — so the entire
// Eq. 1/4 ratio machinery and the Eq. 10 quality model apply unchanged.
func NewProfile(f *grid.Field, rate float64, seed uint64, opts core.Options) (*core.Profile, error) {
	if f == nil || f.Len() == 0 {
		return nil, errors.New("transform: empty field")
	}
	rank := f.Rank()
	if rank < 1 || rank > 4 {
		return nil, errors.New("transform: unsupported rank")
	}
	if rate <= 0 || rate > 1 {
		rate = 0.01
	}
	blocks := blockList(f.Dims)
	picked := stats.SampleIndices(len(blocks), rate, seed)
	blockLen := 1 << (2 * rank)
	buf := make([]float64, blockLen)
	ibuf := make([]int64, blockLen)
	samples := make([]float64, 0, len(picked)*blockLen)
	// The integer transform on codes ≈ the same transform on values divided
	// by the step; emulate it at a fine fixed-point resolution so rounding
	// inside the lifting is negligible relative to any realistic bound.
	_, dataVar, lo, hi := stats.MeanVarMinMax(f.Data)
	scale := 1.0
	if span := hi - lo; span > 0 {
		scale = float64(1<<40) / span
	}
	for _, bi := range picked {
		gatherValues(f, blocks[bi], buf)
		for i, v := range buf {
			ibuf[i] = int64(math.Round(v * scale))
		}
		fwdBlock(ibuf, rank)
		for _, c := range ibuf {
			samples = append(samples, float64(c)/scale)
		}
	}
	return core.NewProfileFromSamples(TransformKind, samples, f.Dims,
		f.Len(), f.Prec.Bits(), hi-lo, dataVar, opts)
}

// gatherValues copies a block of original values with zero padding.
func gatherValues(f *grid.Field, b box, buf []float64) {
	rank := f.Rank()
	st := f.Strides()
	local := make([]int, rank)
	for idx := range buf {
		rem := idx
		inside := true
		flat := 0
		for ax := rank - 1; ax >= 0; ax-- {
			local[ax] = rem % BlockEdge
			rem /= BlockEdge
		}
		for ax := 0; ax < rank; ax++ {
			c := b.origin[ax] + local[ax]
			if c >= f.Dims[ax] {
				inside = false
				break
			}
			flat += c * st[ax]
		}
		if inside {
			buf[idx] = f.Data[flat]
		} else {
			buf[idx] = 0
		}
	}
}
