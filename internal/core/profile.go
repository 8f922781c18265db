package core

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"rqm/internal/grid"
	"rqm/internal/predictor"
	"rqm/internal/stats"
)

// Profile is the one-time product of the sampling pass for one
// (field, predictor) pair. All estimates derive from it; building it is the
// only part of the model whose cost scales with the data size: one O(N)
// scan for range/variance, run on a goroutine of its own while the
// caller's goroutine samples the prediction errors and radix-sorts them in
// O(sample). A cold profile costs about the longer of the two.
type Profile struct {
	// Kind is the profiled predictor.
	Kind predictor.Kind
	// Dims is the field shape.
	Dims []int
	// N is the number of samples in the field.
	N int
	// OrigBits is the original storage width per value (32 or 64).
	OrigBits int
	// Range is the field's value range (max − min).
	Range float64
	// DataVar is the field's population variance (for the SSIM model).
	DataVar float64
	// Errors are the sampled prediction errors (predicted − original).
	Errors []float64
	// AuxBitsPerValue is the predictor side-channel overhead (regression
	// coefficients), in bits per value.
	AuxBitsPerValue float64
	// BuildTime is the wall time spent building the profile.
	BuildTime time.Duration

	opts Options
	// sorted are Errors sorted ascending (NaNs first), the order in which
	// equal quantization codes are contiguous at every bound. Errors itself
	// keeps sampling order: that is what ProfileRecord persists.
	sorted []float64
	// sortedAbs are |Errors| sorted ascending, with prefix sums of squares
	// for O(log n) central-bin variance queries.
	sortedAbs []float64
	prefixSq  []float64
	errStd    float64
	// exactZeroFrac is the share of samples with (numerically) zero
	// prediction error — the data sparsity the paper's §III-C detects.
	// These points reconstruct exactly and are immune to the feedback
	// effects that erode the central bin at high bounds.
	exactZeroFrac float64
}

// NewProfile samples f with the given predictor and returns the profile.
func NewProfile(f *grid.Field, kind predictor.Kind, opts Options) (*Profile, error) {
	if f == nil || f.Len() == 0 {
		return nil, errors.New("core: empty field")
	}
	opts = opts.normalize()
	pred, err := predictor.New(kind)
	if err != nil {
		return nil, err
	}
	if !pred.Supports(f.Rank()) {
		return nil, fmt.Errorf("core: predictor %s does not support rank %d", kind, f.Rank())
	}
	start := time.Now()
	p := &Profile{
		Kind:     kind,
		Dims:     append([]int(nil), f.Dims...),
		N:        f.Len(),
		OrigBits: f.Prec.Bits(),
		opts:     opts,
	}
	// The range is read only to find the exactly predicted samples, so the
	// scan runs beside the sampling and the sort.
	_, dataVar, lo, hi := stats.MeanVarMinMaxWhile(f.Data, func() {
		p.Errors = pred.SampleErrors(f, opts.SampleRate, opts.Seed)
		p.sortErrors()
	})
	if len(p.Errors) == 0 {
		return nil, errors.New("core: sampling produced no prediction errors")
	}
	p.Range, p.DataVar = hi-lo, dataVar
	if kind == predictor.Regression {
		p.AuxBitsPerValue = predictor.AuxBitsPerValue(f.Dims)
	}
	p.findExactZeros()
	p.BuildTime = time.Since(start)
	return p, nil
}

// NewProfileFromSamples builds a profile directly from pre-computed sample
// values (the quantity that becomes a quantization code at a given bound).
// This is the extension hook the paper's future work calls for: codecs
// outside the prediction family (e.g. transform-based) supply their
// coefficient samples and reuse the whole estimation machinery. kind is
// recorded for reporting only; the Eq. 9 correction layer is predictor-
// specific and stays off for kinds it does not know.
func NewProfileFromSamples(kind predictor.Kind, samples []float64, dims []int,
	n, origBits int, valueRange, dataVar float64, opts Options) (*Profile, error) {
	if len(samples) == 0 {
		return nil, errors.New("core: no samples")
	}
	if n <= 0 {
		return nil, errors.New("core: field size must be positive")
	}
	start := time.Now()
	p := &Profile{
		Kind:     kind,
		Dims:     append([]int(nil), dims...),
		N:        n,
		OrigBits: origBits,
		Range:    valueRange,
		DataVar:  dataVar,
		Errors:   samples,
		opts:     opts.normalize(),
	}
	p.index()
	p.BuildTime = time.Since(start)
	return p, nil
}

// index prepares the sorted structures, done here and not on first use
// because cached profiles are read concurrently.
func (p *Profile) index() {
	p.sortErrors()
	p.findExactZeros()
}

// sortErrors fills sorted, sortedAbs and prefixSq, and errStd. The radix
// sort ping-pongs through sortedAbs before it is filled: |errors| ascending
// is the negative half of sorted reversed merged with the non-negative half.
func (p *Profile) sortErrors() {
	n := len(p.Errors)
	s := make([]float64, n)
	p.sorted, p.sortedAbs, p.prefixSq = s, make([]float64, n), make([]float64, n+1)
	sortFloats(s, p.sortedAbs, p.Errors)
	nan := 0
	for nan < n && s[nan] != s[nan] {
		nan++
	}
	pos := nan + sort.SearchFloat64s(s[nan:], 0)
	neg := pos - 1
	for k := range p.sortedAbs {
		var a float64
		switch {
		case k < nan:
			a = s[k]
		case neg >= nan && (pos == n || -s[neg] <= s[pos]):
			a, neg = s[neg], neg-1
		default:
			a, pos = s[pos], pos+1
		}
		a = math.Abs(a)
		p.sortedAbs[k] = a
		p.prefixSq[k+1] = p.prefixSq[k] + a*a
	}
	_, v := stats.MeanVar(p.Errors)
	p.errStd = math.Sqrt(v)
}

// findExactZeros sets exactZeroFrac, the one index entry that needs Range.
func (p *Profile) findExactZeros() {
	zeroTol := p.Range * 1e-13
	nz := sort.SearchFloat64s(p.sortedAbs, math.Nextafter(zeroTol, math.Inf(1)))
	p.exactZeroFrac = float64(nz) / float64(len(p.sortedAbs))
}

// ExactZeroFrac reports the detected data sparsity (share of sampled points
// predicted exactly).
func (p *Profile) ExactZeroFrac() float64 { return p.exactZeroFrac }

// ErrStd is the standard deviation of the sampled prediction errors
// (the Fig. 4 sampling-accuracy metric compares this against the full scan).
func (p *Profile) ErrStd() float64 { return p.errStd }

// Options returns the (normalized) model options the profile was built with.
func (p *Profile) Options() Options { return p.opts }

// centralBinStats returns the share of samples with |err| <= eb and the
// second moment (about zero) of that subset — σ²(B[0]) in Eq. 11.
func (p *Profile) centralBinStats(eb float64) (share, variance float64) {
	n := len(p.sortedAbs)
	k := sort.SearchFloat64s(p.sortedAbs, math.Nextafter(eb, math.Inf(1)))
	if k == 0 {
		return 0, 0
	}
	return float64(k) / float64(n), p.prefixSq[k] / float64(k)
}

// quantileAbs returns the |error| value below which a fraction q in (0, 1] of
// samples falls (used for the anchor error bounds: central-bin share p0 at eb
// means quantileAbs(p0) = eb): stats.Quantile's interpolation over the
// already sorted slice, without its copy and sort.
func (p *Profile) quantileAbs(q float64) float64 {
	s := p.sortedAbs
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(i)
	return s[i]*(1-frac) + s[i+1]*frac
}
