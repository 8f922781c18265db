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
	samples := make([]float64, len(picked)<<(2*rank))
	// The span sets only the scale, so the picked blocks' values are
	// gathered while the field is scanned, and scaled after.
	_, dataVar, lo, hi := stats.MeanVarMinMaxWhile(f.Data, func() { gatherBlocks(samples, f, picked) })
	transformBlocks(samples, f, picked, hi-lo)
	return core.NewProfileFromSamples(TransformKind, samples, f.Dims,
		f.Len(), f.Prec.Bits(), hi-lo, dataVar, opts)
}

// gatherBlocks copies the values of the picked blocks into samples, one
// 4^rank block-buffer after another; a clipped block's missing cells are
// left as they are.
func gatherBlocks(samples []float64, f *grid.Field, picked []int) {
	blockLen := 1 << (2 * f.Rank())
	st := f.Strides()
	w := grid.WalkBlocks(f.Dims, BlockEdge)
	for i, bi := range picked {
		w.Seek(bi)
		c := w.Block().Cells(st)
		for c.Next() {
			samples[i*blockLen+cellPos(c.Local())] = f.Data[c.Flat]
		}
	}
}

// transformBlocks replaces the gathered values with their block transform.
// The integer transform on codes ≈ the same transform on values divided by
// the step; it is emulated at a fine fixed-point resolution set by the
// field's span, so rounding inside the lifting is negligible relative to
// any realistic bound.
func transformBlocks(samples []float64, f *grid.Field, picked []int, span float64) {
	scale := 1.0
	if span > 0 {
		scale = float64(1<<40) / span
	}
	blockLen := 1 << (2 * f.Rank())
	st := f.Strides()
	w := grid.WalkBlocks(f.Dims, BlockEdge)
	var buf [1 << (2 * 4)]int64
	for i, bi := range picked {
		blk, codes := samples[i*blockLen:(i+1)*blockLen], buf[:blockLen]
		if w.Seek(bi); w.Full {
			for j, v := range blk {
				codes[j] = int64(math.Round(v * scale))
			}
		} else {
			// A clipped block's missing cells are 0 as codes, not as
			// values: 0·scale is NaN where a tiny span makes scale +Inf.
			clear(codes)
			c := w.Block().Cells(st)
			for c.Next() {
				j := cellPos(c.Local())
				codes[j] = int64(math.Round(blk[j] * scale))
			}
		}
		fwdBlock(codes)
		for j, c := range codes {
			blk[j] = float64(c) / scale
		}
	}
}
