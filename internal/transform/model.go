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
	w := grid.WalkBlocks(f.Dims, BlockEdge)
	picked := stats.SampleIndices(w.Count(), rate, seed)
	buf := make([]int64, 1<<(2*rank))
	samples := make([]float64, 0, len(picked)*len(buf))
	// The integer transform on codes ≈ the same transform on values divided
	// by the step; emulate it at a fine fixed-point resolution so rounding
	// inside the lifting is negligible relative to any realistic bound.
	_, dataVar, lo, hi := stats.MeanVarMinMax(f.Data)
	scale := 1.0
	if span := hi - lo; span > 0 {
		scale = float64(1<<40) / span
	}
	st := f.Strides()
	for _, bi := range picked {
		clear(buf)
		w.Seek(bi)
		c := w.Block().Cells(st)
		for c.Next() {
			buf[cellPos(c.Local())] = int64(math.Round(f.Data[c.Flat] * scale))
		}
		fwdBlock(buf)
		for _, c := range buf {
			samples = append(samples, float64(c)/scale)
		}
	}
	return core.NewProfileFromSamples(TransformKind, samples, f.Dims,
		f.Len(), f.Prec.Bits(), hi-lo, dataVar, opts)
}
