// Package stats provides the statistical substrate used across the
// compressor and the ratio-quality model: streaming moments, value-range
// scans, histograms over integer quantization codes, and deterministic
// sampling utilities.
package stats

import (
	"math"
	"math/bits"
	"sort"
)

// Moments accumulates count, mean, and variance online (Welford).
// The zero value is an empty accumulator.
type Moments struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add folds one observation into the accumulator.
func (m *Moments) Add(x float64) {
	if m.n == 0 {
		m.min, m.max = x, x
	} else {
		if x < m.min {
			m.min = x
		}
		if x > m.max {
			m.max = x
		}
	}
	m.n++
	d := x - m.mean
	m.mean += d / float64(m.n)
	m.m2 += d * (x - m.mean)
}

// AddSlice folds every element of xs into the accumulator.
func (m *Moments) AddSlice(xs []float64) {
	for _, x := range xs {
		m.Add(x)
	}
}

// N returns the number of observations.
func (m *Moments) N() int64 { return m.n }

// Mean returns the running mean (0 when empty).
func (m *Moments) Mean() float64 { return m.mean }

// Variance returns the population variance (0 when fewer than 2 samples).
func (m *Moments) Variance() float64 {
	if m.n < 2 {
		return 0
	}
	return m.m2 / float64(m.n)
}

// StdDev returns the population standard deviation.
func (m *Moments) StdDev() float64 { return math.Sqrt(m.Variance()) }

// Min returns the smallest observation (0 when empty).
func (m *Moments) Min() float64 { return m.min }

// Max returns the largest observation (0 when empty).
func (m *Moments) Max() float64 { return m.max }

// Range returns max-min (the "minmax" value range used by PSNR).
func (m *Moments) Range() float64 { return m.max - m.min }

// Summary computes moments of a slice in one pass.
func Summary(xs []float64) Moments {
	var m Moments
	m.AddSlice(xs)
	return m
}

// MeanVar returns mean and population variance of xs using a numerically
// stable two-pass algorithm (preferred for quality metrics).
func MeanVar(xs []float64) (mean, variance float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	mean = s / float64(len(xs))
	return mean, varianceAbout(xs, mean)
}

// MeanVarMinMax is MeanVar with MinMax's extrema riding its summing pass:
// two scans of xs where the separate calls make three, and every result
// bit-identical to theirs.
func MeanVarMinMax(xs []float64) (mean, variance, lo, hi float64) {
	if len(xs) == 0 {
		return 0, 0, 0, 0
	}
	lo, hi = xs[0], xs[0]
	var s float64
	for _, x := range xs {
		s += x
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	mean = s / float64(len(xs))
	return mean, varianceAbout(xs, mean), lo, hi
}

func varianceAbout(xs []float64, mean float64) float64 {
	var v float64
	for _, x := range xs {
		d := x - mean
		v += d * d
	}
	return v / float64(len(xs))
}

// MinMax scans for the extrema of xs. Empty input returns (0, 0).
func MinMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

// Quantile returns the q-quantile (0<=q<=1) of xs by sorting a copy;
// linear interpolation between order statistics.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := make([]float64, len(xs))
	copy(cp, xs)
	sort.Float64s(cp)
	if q <= 0 {
		return cp[0]
	}
	if q >= 1 {
		return cp[len(cp)-1]
	}
	pos := q * float64(len(cp)-1)
	i := int(pos)
	frac := pos - float64(i)
	if i+1 >= len(cp) {
		return cp[len(cp)-1]
	}
	return cp[i]*(1-frac) + cp[i+1]*frac
}

// CodeHistogram is a frequency table over signed quantization codes. Codes in
// prediction-based compression concentrate around zero, so it is stored as a
// map from code to count plus cached totals.
type CodeHistogram struct {
	Counts map[int32]int64
	Total  int64
}

// NewCodeHistogram returns an empty histogram.
func NewCodeHistogram() *CodeHistogram {
	return &CodeHistogram{Counts: make(map[int32]int64)}
}

// Add increments the count of code by n.
func (h *CodeHistogram) Add(code int32, n int64) {
	h.Counts[code] += n
	h.Total += n
}

// P returns the empirical probability of code.
func (h *CodeHistogram) P(code int32) float64 {
	if h.Total == 0 {
		return 0
	}
	return float64(h.Counts[code]) / float64(h.Total)
}

// TopP returns the probability of the most frequent code (the paper's p0)
// and that code.
func (h *CodeHistogram) TopP() (p float64, code int32) {
	if h.Total == 0 {
		return 0, 0
	}
	var best int64 = -1
	for c, n := range h.Counts {
		if n > best || (n == best && c < code) {
			best, code = n, c
		}
	}
	return float64(best) / float64(h.Total), code
}

// Entropy returns the Shannon entropy in bits per symbol.
func (h *CodeHistogram) Entropy() float64 {
	if h.Total == 0 {
		return 0
	}
	var e float64
	tot := float64(h.Total)
	for _, n := range h.Counts {
		if n == 0 {
			continue
		}
		p := float64(n) / tot
		e -= p * math.Log2(p)
	}
	return e
}

// XorShift64 is a tiny deterministic PRNG for reproducible sampling without
// pulling in math/rand state everywhere. Never returns the same sequence for
// different seeds; seed 0 is remapped.
type XorShift64 struct{ s uint64 }

// NewXorShift64 seeds the generator. A zero seed is replaced by a constant.
func NewXorShift64(seed uint64) *XorShift64 {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &XorShift64{s: seed}
}

// Uint64 advances the generator.
func (x *XorShift64) Uint64() uint64 {
	s := x.s
	s ^= s << 13
	s ^= s >> 7
	s ^= s << 17
	x.s = s
	return s
}

// Intn returns a uniform value in [0, n). n must be > 0.
func (x *XorShift64) Intn(n int) int {
	return int(x.Uint64() % uint64(n))
}

// Float64 returns a uniform value in [0, 1).
func (x *XorShift64) Float64() float64 {
	return float64(x.Uint64()>>11) / float64(1<<53)
}

// NormFloat64 returns a standard normal variate (Box–Muller, one value per
// pair; we discard the sibling for simplicity).
func (x *XorShift64) NormFloat64() float64 {
	for {
		u1 := x.Float64()
		if u1 <= 1e-300 {
			continue
		}
		u2 := x.Float64()
		return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	}
}

// SampleIndices returns ~rate*n distinct indices in [0,n), deterministically
// from seed, sorted ascending. rate is clamped to (0,1]; at least one index
// is returned for non-empty inputs.
func SampleIndices(n int, rate float64, seed uint64) []int {
	if n <= 0 {
		return nil
	}
	if rate <= 0 {
		rate = 1.0 / float64(n)
	}
	if rate > 1 {
		rate = 1
	}
	k := int(math.Round(rate * float64(n)))
	if k < 1 {
		k = 1
	}
	if k >= n {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	// Floyd's algorithm for distinct sampling, membership in an n-bit set:
	// scanning the set emits the indices sorted, with no map and no sort.
	rng := NewXorShift64(seed)
	chosen := make([]uint64, (n+63)/64)
	for j := n - k; j < n; j++ {
		t := rng.Intn(j + 1)
		if chosen[t>>6]&(1<<(t&63)) != 0 {
			t = j
		}
		chosen[t>>6] |= 1 << (t & 63)
	}
	out := make([]int, 0, k)
	for w, word := range chosen {
		for ; word != 0; word &= word - 1 {
			out = append(out, w<<6+bits.TrailingZeros64(word))
		}
	}
	return out
}
