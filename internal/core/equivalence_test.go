package core

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"rqm/internal/datagen"
	"rqm/internal/poison"
	"rqm/internal/predictor"
	"rqm/internal/quantizer"
)

// canonBits is a float's bit pattern, every NaN folded into one: which
// payload survives a sum of several distinct NaN samples depends on the
// order an unstable sort left them in, and no caller can observe it.
func canonBits(x float64) uint64 {
	if x != x {
		return math.Float64bits(math.NaN())
	}
	return math.Float64bits(x)
}

// estimateBits flattens an Estimate by reflection, so a field added to it is
// compared without anybody remembering to.
func estimateBits(e Estimate) []uint64 {
	v := reflect.ValueOf(e)
	out := make([]uint64, v.NumField())
	for i := range out {
		if f := v.Field(i); f.Kind() == reflect.Float64 {
			out[i] = canonBits(f.Float())
		} else {
			out[i] = uint64(f.Int())
		}
	}
	return out
}

func requireSameEstimate(t testing.TB, label string, p *Profile, o *oracle, eb float64) {
	t.Helper()
	got, want := p.EstimateAt(eb), o.EstimateAt(eb)
	if !reflect.DeepEqual(estimateBits(got), estimateBits(want)) {
		t.Fatalf("%s eb=%g (%#x):\n got %+v\nwant %+v", label, eb, math.Float64bits(eb), got, want)
	}
}

func requireSameSolve(t testing.TB, label string, target float64, got float64, gotErr error, want float64, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("%s target %v: error %v, oracle %v", label, target, gotErr, wantErr)
	}
	if canonBits(got) != canonBits(want) {
		t.Fatalf("%s target %v: bound %g (%#x), oracle %g (%#x)", label, target,
			got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// pipelines enumerates the modeled pipelines (entropy model × lossless stage
// × correction layer) over one sampling pass: the flags only steer how the
// samples are read, so the profile is copied, not rebuilt.
func pipelines(p *Profile) []*Profile {
	var out []*Profile
	for _, entropy := range []EntropyModel{EntropyModelHuffman, EntropyModelANS} {
		for _, lossless := range []bool{false, true} {
			for _, off := range []bool{false, true} {
				q := *p
				q.opts.Entropy, q.opts.UseLossless, q.opts.DisableCorrection = entropy, lossless, off
				out = append(out, &q)
			}
		}
	}
	return out
}

func pipelineLabel(name string, p *Profile) string {
	return fmt.Sprintf("%s/%s/%s/lossless=%v/nocorr=%v", name, p.Kind,
		p.opts.Entropy, p.opts.UseLossless, p.opts.DisableCorrection)
}

// logSpaced returns n points from lo to hi, evenly spaced in the exponent.
func logSpaced(lo, hi float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = lo * math.Pow(hi/lo, float64(i)/float64(n-1))
	}
	return out
}

// datagenProfiles builds one profile per datagen field (Tiny) and predictor
// that supports its rank.
func datagenProfiles(t testing.TB) map[string]*Profile {
	t.Helper()
	out := map[string]*Profile{}
	fields := 0
	for _, ds := range datagen.Names() {
		d, err := datagen.Generate(ds, 42, datagen.Tiny)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range d.Fields {
			fields++
			for _, kind := range predictor.Kinds() {
				if pred, _ := predictor.New(kind); !pred.Supports(f.Rank()) {
					continue
				}
				p, err := NewProfile(f, kind, Options{SampleRate: 0.02, Seed: 7})
				if err != nil {
					t.Fatalf("%s/%s: %v", f.Name, kind, err)
				}
				out[f.Name+"/"+kind.String()] = p
			}
		}
	}
	if fields < 17 {
		t.Fatalf("datagen has %d fields, Table II's 17 at least were expected", fields)
	}
	return out
}

// adversarialProfiles are the shapes the deleted dense/map split and the
// sorted-run walk could disagree on: degenerate sample sets, ranges at the
// ends of float64, non-finite and signed-zero samples, and a peaked set that
// keeps Eq. 9 on at every bound. The bounds each is probed at run down to
// where most codes fall past ±quantizer.DefaultRadius.
func adversarialProfiles(t testing.TB) map[string]*Profile {
	t.Helper()
	spread := func(scale float64) []float64 {
		s := make([]float64, 300)
		for i := range s {
			s[i] = scale * math.Sin(float64(i)*0.7) * math.Exp(-float64(i%17))
		}
		return s
	}
	hostile := append(spread(1), math.NaN(), math.Inf(1), math.Inf(-1), math.Inf(1), math.Copysign(0, -1), 0,
		5e-324, -5e-324, 2.2e-308, math.MaxFloat64, -math.MaxFloat64)
	peaked := append(make([]float64, 900), spread(1)...) // p0 >= 0.8 at every bound: Eq. 9 always on
	shapes := []struct {
		name    string
		samples []float64
		vrange  float64
	}{
		{"all-zero", make([]float64, 64), 1},
		{"all-zero-range-0", make([]float64, 64), 0},
		{"one-sample", []float64{0.25}, 1},
		{"one-negative-sample", []float64{-3}, 1},
		{"range-1e300", spread(1e299), 1e300},
		{"range-1e-300", spread(1e-301), 1e-300},
		{"spread", spread(1), 2},
		{"peaked", peaked, 2},
		{"hostile", hostile, 2},
		{"all-negative", []float64{-1, -2, -2, -3, -1e-9}, 4},
	}
	out := map[string]*Profile{}
	for _, sh := range shapes {
		p, err := NewProfileFromSamples(predictor.Lorenzo, sh.samples, []int{1 << 16}, 1<<16, 32, sh.vrange, 0.1, Options{})
		if err != nil {
			t.Fatalf("%s: %v", sh.name, err)
		}
		out[sh.name] = p
	}
	return out
}

// stepEdges returns every stride-th distinct |sample| over each of divisors,
// with its two float neighbours: over 1 the bound at which centralBinStats
// steps and the sample leaves code 0, over 3, 5, … where it crosses into the
// next codes.
func stepEdges(p *Profile, stride int, divisors ...float64) []float64 {
	var out []float64
	for i := 0; i < len(p.sortedAbs); i += stride {
		if i > 0 && p.sortedAbs[i] == p.sortedAbs[i-1] {
			continue
		}
		for _, d := range divisors {
			e := p.sortedAbs[i] / d
			out = append(out, math.Nextafter(e, 0), e, math.Nextafter(e, math.Inf(1)))
		}
	}
	return out
}

// TestEstimateMatchesOracle requires the sorted-run EstimateAt to equal the
// per-sample one in every field, bit for bit.
func TestEstimateMatchesOracle(t *testing.T) {
	// Every distinct |sample| on the default pipeline; the other seven read
	// the same histogram walk, so a thinned set of edges does for them.
	stride, thinned, points := 1, 8, 481
	if testing.Short() || poison.Enabled {
		stride, thinned, points = 8, 64, 49
	}
	for name, base := range datagenProfiles(t) {
		span := logSpaced(base.Range*1e-12, base.Range, points)
		for i, p := range pipelines(base) {
			o, label := newOracle(p), pipelineLabel(name, p)
			edges := stepEdges(base, thinned, 1)
			if i == 0 {
				edges = stepEdges(base, stride, 1)
			}
			for _, eb := range append(edges, span...) {
				requireSameEstimate(t, label, p, o, eb)
			}
		}
	}
	extremes := []float64{5e-324, 1e-310, 1e-300, 1e-30, 1, 1e30, 1e300, 8.9e307, 9e307, math.MaxFloat64, math.Inf(1)}
	for name, base := range adversarialProfiles(t) {
		scale := base.Range
		if scale == 0 {
			scale = 1
		}
		bounds := append(logSpaced(scale*1e-12, scale, points), extremes...)
		// Over 2·DefaultRadius+1 a sample crosses out of the quantizer range.
		bounds = append(bounds, stepEdges(base, stride, 1, 3, 5, 2*quantizer.DefaultRadius+1)...)
		for _, p := range pipelines(base) {
			o, label := newOracle(p), pipelineLabel(name, p)
			for _, eb := range bounds {
				requireSameEstimate(t, label, p, o, eb)
			}
		}
	}
}

// TestSolvesMatchOracle requires the three inverse solves to return the
// oracle's bound bit for bit, or its error.
func TestSolvesMatchOracle(t *testing.T) {
	psnrs := []float64{math.Inf(-1), math.Inf(1), math.NaN()}
	for db := -10.0; db <= 200; db += 7.5 {
		psnrs = append(psnrs, db)
	}
	ratios := append(logSpaced(1.01, 1e6, 13), 1, 0.5, math.NaN())
	bitRates := append(logSpaced(0.01, 40, 12), 0, -1, math.NaN())
	if testing.Short() || poison.Enabled {
		ratios, bitRates = append(logSpaced(1.01, 1e6, 4), 1), append(logSpaced(0.01, 40, 4), 0)
	}
	check := func(name string, base *Profile) {
		o := newOracle(base)
		for _, target := range psnrs { // PSNR reads none of the pipeline flags
			got, gotErr := base.ErrorBoundForPSNR(target)
			want, wantErr := o.ErrorBoundForPSNR(target)
			requireSameSolve(t, name+" psnr", target, got, gotErr, want, wantErr)
		}
		for _, p := range pipelines(base) {
			o, label := newOracle(p), pipelineLabel(name, p)
			for _, target := range ratios {
				got, gotErr := p.ErrorBoundForRatio(target)
				want, wantErr := o.ErrorBoundForRatio(target)
				requireSameSolve(t, label+" ratio", target, got, gotErr, want, wantErr)
			}
			for _, target := range bitRates {
				got, gotErr := p.ErrorBoundForBitRate(target)
				want, wantErr := o.ErrorBoundForBitRate(target)
				requireSameSolve(t, label+" bit-rate", target, got, gotErr, want, wantErr)
			}
		}
	}
	for name, p := range datagenProfiles(t) {
		check(name, p)
	}
	for name, p := range adversarialProfiles(t) {
		check(name, p)
	}
}

// TestHostileSamplesFiledOutOfRange pins how non-finite samples are filed:
// NaN has no code and ±Inf clamp beyond every radius, so all three are
// unpredictable on every GOARCH (int32(NaN) is 0 on arm64, which used to put
// NaN errors in the central bin); −0 and denormals are ordinary zeros.
func TestHostileSamplesFiledOutOfRange(t *testing.T) {
	samples := []float64{0.5, math.NaN(), 0, math.Inf(1), math.Copysign(0, -1), 5e-324, -0.5, math.Inf(-1), -5e-324, math.NaN()}
	p, err := NewProfileFromSamples(predictor.Transform, samples, []int{100}, 100, 32, 2, 0.1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	est := p.EstimateAt(0.1)
	if est.UnpredShare != 0.4 || est.P0 != 4.0/6 || est.ZeroShare != 4.0/6 || est.DistinctCodes != 3 {
		t.Fatalf("unpred %v p0 %v zero %v distinct %d, want 0.4, 2/3, 2/3, 3",
			est.UnpredShare, est.P0, est.ZeroShare, est.DistinctCodes)
	}
	// At a bound wide enough for one bin the six finite samples share it.
	est = p.EstimateAt(10)
	if est.UnpredShare != 0.4 || est.P0 != 1 || est.DistinctCodes != 1 {
		t.Fatalf("wide bound: unpred %v p0 %v distinct %d, want 0.4, 1, 1", est.UnpredShare, est.P0, est.DistinctCodes)
	}
	requireSameEstimate(t, "hostile", p, newOracle(p), 0.1)
}

// TestSteadyStateAllocations: once the pooled scratch has grown, an estimate
// and both kinds of solve allocate nothing.
func TestSteadyStateAllocations(t *testing.T) {
	if poison.Enabled {
		t.Skip("sync.Pool sheds items under the race detector")
	}
	p := profileOf(t, field(t, "nyx/temperature"), predictor.Lorenzo)
	eb := p.Range * 1e-3
	for name, fn := range map[string]func(){
		"EstimateAt":         func() { p.EstimateAt(eb) },
		"EstimateAt/Eq9":     func() { p.EstimateAt(p.quantileAbs(0.95)) },
		"ErrorBoundForPSNR":  func() { _, _ = p.ErrorBoundForPSNR(60) },
		"ErrorBoundForRatio": func() { _, _ = p.ErrorBoundForRatio(8) },
	} {
		fn()
		if n := testing.AllocsPerRun(20, fn); n != 0 {
			t.Errorf("%s allocates %v objects per call", name, n)
		}
	}
}

// TestSharedProfileConcurrentReads is the service cache's situation: one
// *Profile answering estimates, curves and solves from several goroutines at
// once. Every answer must equal the serial one (run with -race).
func TestSharedProfileConcurrentReads(t *testing.T) {
	p := profileOf(t, field(t, "hurricane/U"), predictor.Lorenzo)
	bounds := logSpaced(p.Range*1e-9, p.Range, 40)
	type answers struct {
		Curve, Each       [][]uint64
		PSNR, Ratio, Rate float64
	}
	ask := func() (a answers, err error) {
		for i, est := range p.Curve(bounds) {
			a.Curve = append(a.Curve, estimateBits(est))
			a.Each = append(a.Each, estimateBits(p.EstimateAt(bounds[i])))
		}
		if a.PSNR, err = p.ErrorBoundForPSNR(60); err != nil {
			return a, err
		}
		if a.Ratio, err = p.ErrorBoundForRatio(12); err != nil {
			return a, err
		}
		a.Rate, err = p.ErrorBoundForBitRate(2)
		return a, err
	}
	want, err := ask()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Curve, want.Each) {
		t.Fatal("Curve and EstimateAt disagree")
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if got, err := ask(); err != nil || !reflect.DeepEqual(got, want) {
					t.Errorf("concurrent answers differ from the serial ones (err %v)", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestRecordRoundTripAnswersIdentically: the sorted slices are rebuilt from
// the persisted sampling-order errors, never persisted, and the rebuilt
// profile answers as the original does.
func TestRecordRoundTripAnswersIdentically(t *testing.T) {
	p := profileOf(t, field(t, "miranda/vx"), predictor.Interpolation)
	raw, err := json.Marshal(p.Record())
	if err != nil {
		t.Fatal(err)
	}
	var rec ProfileRecord
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatal(err)
	}
	back, err := ProfileFromRecord(&rec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Errors, p.Errors) {
		t.Fatal("record does not carry the errors in sampling order")
	}
	for _, eb := range logSpaced(p.Range*1e-12, p.Range, 97) {
		if got, want := back.EstimateAt(eb), p.EstimateAt(eb); !reflect.DeepEqual(estimateBits(got), estimateBits(want)) {
			t.Fatalf("eb=%g: rebuilt profile estimates %+v, original %+v", eb, got, want)
		}
	}
	for _, target := range []float64{30, 60, 90} {
		got, gotErr := back.ErrorBoundForPSNR(target)
		want, wantErr := p.ErrorBoundForPSNR(target)
		requireSameSolve(t, "psnr", target, got, gotErr, want, wantErr)
		got, gotErr = back.ErrorBoundForRatio(target)
		want, wantErr = p.ErrorBoundForRatio(target)
		requireSameSolve(t, "ratio", target, got, gotErr, want, wantErr)
	}
}

// profileFromFuzz decodes a fuzz input into a profile: little-endian float64
// samples, any bit pattern allowed.
func profileFromFuzz(data []byte, flags uint8) (*Profile, error) {
	samples := make([]float64, len(data)/8)
	for i := range samples {
		samples[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
	}
	kind := predictor.Lorenzo
	if flags&8 != 0 {
		kind = predictor.Interpolation
	}
	opts := Options{UseLossless: flags&2 != 0, DisableCorrection: flags&4 != 0}
	if flags&1 != 0 {
		opts.Entropy = EntropyModelANS
	}
	return NewProfileFromSamples(kind, samples, []int{4096}, 4096, 32, 2, 0.1, opts)
}

func fuzzBytes(samples []float64) []byte {
	out := make([]byte, 8*len(samples))
	for i, s := range samples {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(s))
	}
	return out
}

// FuzzEstimateMatchesOracle: any samples, bound and pipeline flags —
// the estimate equals the oracle's, and so do the solves, or both reject.
func FuzzEstimateMatchesOracle(f *testing.F) {
	for _, p := range adversarialProfiles(f) {
		for _, exp := range []int16{-1074, -300, -10, 0, 10, 1023} {
			f.Add(fuzzBytes(p.Errors), exp, uint16(0x8000), uint8(0))
			f.Add(fuzzBytes(p.Errors), exp, uint16(0x1234), uint8(11))
			f.Add(fuzzBytes(p.Errors), exp, uint16(0x4321), uint8(6))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, exp int16, mant uint16, flags uint8) {
		if len(data) > 1<<16 {
			t.Skip() // the cap keeps the oracle's per-sample loop quick
		}
		p, err := profileFromFuzz(data, flags)
		if err != nil {
			t.Skip()
		}
		o := newOracle(p)
		eb := math.Ldexp(1+float64(mant)/65536, int(exp)%1100)
		requireSameEstimate(t, "fuzz", p, o, eb)
		for _, e := range p.Errors[:min(len(p.Errors), 8)] {
			requireSameEstimate(t, "fuzz edge", p, o, math.Abs(e)/2)
		}
		got, gotErr := p.ErrorBoundForPSNR(float64(exp) / 4)
		want, wantErr := o.ErrorBoundForPSNR(float64(exp) / 4)
		requireSameSolve(t, "fuzz psnr", float64(exp)/4, got, gotErr, want, wantErr)
		target := 1 + float64(mant)/64
		got, gotErr = p.ErrorBoundForRatio(target)
		want, wantErr = o.ErrorBoundForRatio(target)
		requireSameSolve(t, "fuzz ratio", target, got, gotErr, want, wantErr)
	})
}
