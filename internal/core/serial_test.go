package core

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"
	"time"

	"rqm/internal/datagen"
	"rqm/internal/grid"
	"rqm/internal/poison"
	"rqm/internal/predictor"
	"rqm/internal/stats"
)

// The serial reference: NewProfile, NewProfileFromSamples and index as they
// stood while the field scan ran after the sampling on one goroutine and
// the samples went through sort.Float64s, moved here verbatim (names
// aside). TestProfileMatchesSerial holds the profile to them bit for bit.

func serialNewProfile(f *grid.Field, kind predictor.Kind, opts Options) (*Profile, error) {
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
	errs := pred.SampleErrors(f, opts.SampleRate, opts.Seed)
	if len(errs) == 0 {
		return nil, errors.New("core: sampling produced no prediction errors")
	}
	_, dataVar, lo, hi := stats.MeanVarMinMax(f.Data)
	p := &Profile{
		Kind:     kind,
		Dims:     append([]int(nil), f.Dims...),
		N:        f.Len(),
		OrigBits: f.Prec.Bits(),
		Range:    hi - lo,
		DataVar:  dataVar,
		Errors:   errs,
		opts:     opts,
	}
	if kind == predictor.Regression {
		p.AuxBitsPerValue = predictor.AuxBitsPerValue(f.Dims)
	}
	p.serialIndex()
	p.BuildTime = time.Since(start)
	return p, nil
}

func serialNewProfileFromSamples(kind predictor.Kind, samples []float64, dims []int,
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
	p.serialIndex()
	p.BuildTime = time.Since(start)
	return p, nil
}

func (p *Profile) serialIndex() {
	n := len(p.Errors)
	s := append(make([]float64, 0, n), p.Errors...)
	sort.Float64s(s)
	p.sorted, p.sortedAbs, p.prefixSq = s, make([]float64, n), make([]float64, n+1)
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
	zeroTol := p.Range * 1e-13
	nz := sort.SearchFloat64s(p.sortedAbs, math.Nextafter(zeroTol, math.Inf(1)))
	p.exactZeroFrac = float64(nz) / float64(len(p.sortedAbs))
}

// plantings are the variants of a field the serial comparison runs: as
// generated, with specials (±Inf, ±0, subnormals, NaN) planted in the
// interior, and with a NaN in front as well (which poisons the value
// range). The specials land often enough that sampling meets them.
var plantings = []string{"generated", "interior", "leading-nan"}

func planted(f *grid.Field, how string) *grid.Field {
	if how == "generated" {
		return f
	}
	g := *f
	g.Data = append([]float64(nil), f.Data...)
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
		5e-324, -5e-324, 2.2250738585072e-308, -1.5e-315}
	for i := 1; i < len(g.Data); i += 37 {
		g.Data[i] = specials[(i/37)%len(specials)]
	}
	if how == "leading-nan" {
		g.Data[0] = math.NaN()
	}
	return &g
}

// tinyFields is every field of every datagen stand-in at Tiny scale, the
// mixed composite included.
func tinyFields(t testing.TB) []*grid.Field {
	t.Helper()
	var out []*grid.Field
	for _, name := range append(datagen.Names(), "mixed") {
		ds, err := datagen.Generate(name, 42, datagen.Tiny)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, ds.Fields...)
	}
	return out
}

// requireSameProfile compares everything a profile computes from its field,
// bit for bit (NaN payloads folded, see canonBits), then the estimates and
// solves the two give.
func requireSameProfile(t testing.TB, label string, got, want *Profile) {
	t.Helper()
	floats := func(name string, g, w []float64) {
		t.Helper()
		if len(g) != len(w) {
			t.Fatalf("%s: %d %s, serial %d", label, len(g), name, len(w))
		}
		for i := range g {
			if canonBits(g[i]) != canonBits(w[i]) {
				t.Fatalf("%s: %s[%d] = %g (%#x), serial %g (%#x)", label, name, i,
					g[i], math.Float64bits(g[i]), w[i], math.Float64bits(w[i]))
			}
		}
	}
	floats("Range", []float64{got.Range}, []float64{want.Range})
	floats("DataVar", []float64{got.DataVar}, []float64{want.DataVar})
	floats("Errors", got.Errors, want.Errors)
	floats("sortedAbs", got.sortedAbs, want.sortedAbs)
	floats("prefixSq", got.prefixSq, want.prefixSq)
	floats("errStd", []float64{got.errStd}, []float64{want.errStd})
	floats("exactZeroFrac", []float64{got.exactZeroFrac}, []float64{want.exactZeroFrac})
	scale := 1.0
	if r := want.Range; r > 0 && !math.IsInf(r, 0) {
		scale = r
	}
	for _, rel := range []float64{1e-6, 1e-4, 1e-2, 0.3} {
		eb := rel * scale
		if g, w := got.EstimateAt(eb), want.EstimateAt(eb); !reflect.DeepEqual(estimateBits(g), estimateBits(w)) {
			t.Fatalf("%s eb=%g:\n got %+v\nwant %+v", label, eb, g, w)
		}
	}
	for _, psnr := range []float64{40, 80} {
		g, gErr := got.ErrorBoundForPSNR(psnr)
		w, wErr := want.ErrorBoundForPSNR(psnr)
		requireSameSolve(t, label+" psnr", psnr, g, gErr, w, wErr)
	}
	for _, ratio := range []float64{4, 30} {
		g, gErr := got.ErrorBoundForRatio(ratio)
		w, wErr := want.ErrorBoundForRatio(ratio)
		requireSameSolve(t, label+" ratio", ratio, g, gErr, w, wErr)
	}
}

// TestProfileMatchesSerial: every Tiny field, every predictor that takes
// its rank, as generated and with specials planted — the profile and the
// NewProfileFromSamples profile over its samples (the path transform
// profiles and loaded records take) equal the serial ones.
func TestProfileMatchesSerial(t *testing.T) {
	rates := []float64{0.01, 0.2}
	if poison.Enabled || testing.Short() {
		rates = rates[1:]
	}
	for _, f := range tinyFields(t) {
		for _, how := range plantings {
			pf := planted(f, how)
			for _, kind := range predictor.Kinds() {
				pred, err := predictor.New(kind)
				if err != nil {
					t.Fatal(err)
				}
				if !pred.Supports(pf.Rank()) {
					continue
				}
				for _, rate := range rates {
					label := fmt.Sprintf("%s %s %s rate %v", f.Name, how, kind, rate)
					opts := Options{SampleRate: rate, Seed: 7}
					got, gotErr := NewProfile(pf, kind, opts)
					want, wantErr := serialNewProfile(pf, kind, opts)
					if (gotErr == nil) != (wantErr == nil) {
						t.Fatalf("%s: error %v, serial %v", label, gotErr, wantErr)
					}
					if gotErr != nil {
						continue
					}
					requireSameProfile(t, label, got, want)
					got, err = NewProfileFromSamples(kind, want.Errors, pf.Dims, pf.Len(), 32, want.Range, want.DataVar, opts)
					if err != nil {
						t.Fatal(err)
					}
					want, err = serialNewProfileFromSamples(kind, want.Errors, pf.Dims, pf.Len(), 32, want.Range, want.DataVar, opts)
					if err != nil {
						t.Fatal(err)
					}
					requireSameProfile(t, label+" from samples", got, want)
				}
			}
		}
	}
}
