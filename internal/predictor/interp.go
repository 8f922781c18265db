package predictor

import (
	"rqm/internal/grid"
	"rqm/internal/stats"
)

// interpPredictor implements SZ3-style multilevel interpolation: levels from
// coarse to fine, each level sweeping every dimension and predicting points
// at odd multiples of the level stride from already-known neighbors on the
// twice-coarser grid. With cubic enabled, a 4-point spline is used where all
// four neighbors exist.
type interpPredictor struct {
	cubic bool
}

func (p interpPredictor) Kind() Kind {
	if p.cubic {
		return InterpolationCubic
	}
	return Interpolation
}

func (p interpPredictor) Supports(rank int) bool { return rank >= 1 && rank <= 4 }

// maxLevelFor returns the number of interpolation levels: smallest L with
// 2^L >= max(dims).
func maxLevelFor(dims []int) int {
	maxDim := 1
	for _, d := range dims {
		if d > maxDim {
			maxDim = d
		}
	}
	l := 0
	for (1 << l) < maxDim {
		l++
	}
	if l == 0 {
		l = 1
	}
	return l
}

// walkInterp is the multilevel walk: the anchor, then every sweep.
func walkInterp[E Emitter](dims []int, work []float64, cubic bool, e E) {
	e.Emit(0, 0) // anchor point: predicted as 0
	st := grid.Strides(dims)
	interpLines(dims, st, func(d, s, base int) {
		dim, std := dims[d], st[d]
		for c := s; c < dim; c += 2 * s {
			idx := base + c*std
			e.Emit(idx, interpAt(work, idx, c, s, s*std, dim, cubic))
		}
	})
}

// interpLines visits every sweep's lines in walk order: levels from coarse
// to fine, at each level the sweep along every dimension d in turn. A sweep
// predicts the points whose coordinate along d is an odd multiple of the
// level's stride s, with coords along dims < d on the s-grid and dims > d
// on the 2s-grid; line receives d, s and the offset of each line's point
// at coordinate 0 along d.
func interpLines(dims, st []int, line func(d, s, base int)) {
	rank := len(dims)
	for level := maxLevelFor(dims); level >= 1; level-- {
		s := 1 << (level - 1)
		for d := range dims {
			if s >= dims[d] {
				continue // no odd multiple of s inside this dimension
			}
			// Odometer over the free dims; rank <= 4, so nothing is
			// allocated per sweep.
			var coords [4]int
			coord := coords[:rank]
			for {
				base := 0
				for j := range coord {
					base += coord[j] * st[j]
				}
				line(d, s, base)
				j := rank - 1
				for ; j >= 0; j-- {
					if j == d {
						continue
					}
					if j < d {
						coord[j] += s
					} else {
						coord[j] += 2 * s
					}
					if coord[j] < dims[j] {
						break
					}
					coord[j] = 0
				}
				if j < 0 {
					break
				}
			}
		}
	}
}

// interpAt is the interpolated prediction at idx, coordinate c of its line
// along a dimension of extent dim, from the known points s away, o apart in
// work (and 3s away for the cubic spline, where all four lie in the line).
func interpAt(work []float64, idx, c, s, o, dim int, cubic bool) float64 {
	a := work[idx-o] // coord c-s always >= 0
	if cubic && c >= 3*s && c+3*s < dim {
		return (-work[idx-3*o] + float64(9*a) + float64(9*work[idx+o]) - work[idx+3*o]) / 16
	}
	if c+s < dim {
		return (a + work[idx+o]) / 2
	}
	return a
}

// SampleErrors uses the paper's level-aware strategy: every sweep point is a
// candidate and is sampled with uniform probability, which makes the number
// of samples per level shrink by 2^-rank from fine to coarse exactly as the
// level populations do. Predictions use original values (§III-C4), through
// the walk's lines and formula.
//
// The pass is O(sample): the interpolation arithmetic runs only for the
// points the RNG picks. The RNG is drawn once per sweep point, in sweep
// order, picked or not.
func (p interpPredictor) SampleErrors(f *grid.Field, rate float64, seed uint64) []float64 {
	dims, st := f.Dims, f.Strides()
	rng := stats.NewXorShift64(seed)
	out := make([]float64, 0, sampleCap(f.Len(), rate))
	interpLines(dims, st, func(d, s, base int) {
		// got is local, so each append stays off the captured out.
		data, dim, std, got := f.Data, dims[d], st[d], out
		for c := s; c < dim; c += 2 * s {
			if rng.Float64() < rate {
				idx := base + c*std
				got = append(got, interpAt(data, idx, c, s, s*std, dim, p.cubic)-data[idx])
			}
		}
		out = got
	})
	if len(out) == 0 && dims[0] > 1 {
		// Degenerate rate: fall back to one deterministic sample, the first
		// point of the finest sweep along dimension 0.
		out = append(out, interpAt(f.Data, st[0], 1, 1, st[0], dims[0], p.cubic)-f.Data[st[0]])
	}
	return out
}
