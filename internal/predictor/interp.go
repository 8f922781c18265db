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

// walkInterp is the multilevel walk: the anchor, then every level from
// coarse to fine, sweeping each dimension in turn.
func walkInterp[E Emitter](dims []int, work []float64, cubic bool, e E) {
	e.Emit(0, 0) // anchor point: predicted as 0
	st := grid.Strides(dims)
	for level := maxLevelFor(dims); level >= 1; level-- {
		s := 1 << (level - 1)
		for d := range dims {
			sweep(dims, st, work, d, s, cubic, e)
		}
	}
}

// sweep predicts all points whose coordinate along dim d is an odd multiple
// of s, with coords along dims < d on the s-grid and dims > d on the 2s-grid.
// e receives the flat index and the interpolated prediction (reading from
// work, which holds known values).
func sweep[E Emitter](dims, st []int, work []float64, d, s int, cubic bool, e E) {
	rank := len(dims)
	if s >= dims[d] {
		return // no odd multiple of s inside this dimension
	}
	// Odometer over the free dims.
	coord := make([]int, rank)
	steps := make([]int, rank)
	for j := 0; j < rank; j++ {
		if j < d {
			steps[j] = s
		} else {
			steps[j] = 2 * s
		}
	}
	stD := st[d]
	dimD := dims[d]
	for {
		// Base offset for this line (coord[d] == 0 here).
		base := 0
		for j := 0; j < rank; j++ {
			if j != d {
				base += coord[j] * st[j]
			}
		}
		for c := s; c < dimD; c += 2 * s {
			idx := base + c*stD
			a := work[idx-s*stD] // coord c-s always >= 0
			var pred float64
			hasB := c+s < dimD
			if cubic && c-3*s >= 0 && c+3*s < dimD {
				a3 := work[idx-3*s*stD]
				b1 := work[idx+s*stD]
				b3 := work[idx+3*s*stD]
				pred = (-a3 + 9*a + 9*b1 - b3) / 16
			} else if hasB {
				pred = (a + work[idx+s*stD]) / 2
			} else {
				pred = a
			}
			e.Emit(idx, pred)
		}
		// Advance the odometer over free dims.
		j := rank - 1
		for ; j >= 0; j-- {
			if j == d {
				continue
			}
			coord[j] += steps[j]
			if coord[j] < dims[j] {
				break
			}
			coord[j] = 0
		}
		if j < 0 {
			return
		}
	}
}

// SampleErrors uses the paper's level-aware strategy: every sweep point is a
// candidate and is sampled with uniform probability, which makes the number
// of samples per level shrink by 2^-rank from fine to coarse exactly as the
// level populations do. Predictions use original values (§III-C4).
//
// The pass is O(sample): sweep positions are enumerated cheaply and the
// interpolation arithmetic runs only for the points the RNG actually picks.
// The RNG is consumed once per sweep point in sweep order — exactly as the
// previous compute-then-discard implementation did — so the sampled set
// (and therefore every model profile) is unchanged.
func (p interpPredictor) SampleErrors(f *grid.Field, rate float64, seed uint64) []float64 {
	dims := f.Dims
	st := grid.Strides(dims)
	rng := stats.NewXorShift64(seed)
	out := make([]float64, 0, sampleCap(f.Len(), rate))
	for level := maxLevelFor(dims); level >= 1; level-- {
		s := 1 << (level - 1)
		for d := range dims {
			out = p.sweepSampled(dims, st, f.Data, d, s, rng, rate, out)
		}
	}
	if len(out) == 0 && f.Len() > 1 {
		// Degenerate rate: fall back to one deterministic sample.
		sweep(dims, st, f.Data, 0, 1, p.cubic, emitFunc(func(idx int, pred float64) {
			if len(out) == 0 {
				out = append(out, pred-f.Data[idx])
			}
		}))
	}
	return out
}

// sweepSampled walks the same positions as sweep but computes the
// interpolation only for sampled points, appending (pred − original) to out.
func (p interpPredictor) sweepSampled(dims, st []int, work []float64, d, s int,
	rng *stats.XorShift64, rate float64, out []float64) []float64 {
	rank := len(dims)
	if s >= dims[d] {
		return out
	}
	var coords, stepsBuf [4]int // rank <= 4: no allocation per sweep
	coord, steps := coords[:rank], stepsBuf[:rank]
	for j := 0; j < rank; j++ {
		if j < d {
			steps[j] = s
		} else {
			steps[j] = 2 * s
		}
	}
	stD := st[d]
	dimD := dims[d]
	for {
		base := 0
		for j := 0; j < rank; j++ {
			if j != d {
				base += coord[j] * st[j]
			}
		}
		for c := s; c < dimD; c += 2 * s {
			if rng.Float64() >= rate {
				continue
			}
			idx := base + c*stD
			a := work[idx-s*stD]
			var pred float64
			hasB := c+s < dimD
			if p.cubic && c-3*s >= 0 && c+3*s < dimD {
				a3 := work[idx-3*s*stD]
				b1 := work[idx+s*stD]
				b3 := work[idx+3*s*stD]
				pred = (-a3 + 9*a + 9*b1 - b3) / 16
			} else if hasB {
				pred = (a + work[idx+s*stD]) / 2
			} else {
				pred = a
			}
			out = append(out, pred-work[idx])
		}
		j := rank - 1
		for ; j >= 0; j-- {
			if j == d {
				continue
			}
			coord[j] += steps[j]
			if coord[j] < dims[j] {
				break
			}
			coord[j] = 0
		}
		if j < 0 {
			return out
		}
	}
}
