package core

import (
	"math"
	"testing"

	"rqm/internal/compressor"
	"rqm/internal/datagen"
	"rqm/internal/grid"
	"rqm/internal/predictor"
	"rqm/internal/quality"
)

func field(t testing.TB, name string) *grid.Field {
	t.Helper()
	f, err := datagen.GenerateField(name, 42, datagen.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func profileOf(t testing.TB, f *grid.Field, kind predictor.Kind) *Profile {
	t.Helper()
	// Tiny fields need a higher sample rate for stable statistics.
	p, err := NewProfile(f, kind, Options{SampleRate: 0.2, Seed: 7, UseLossless: true})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewProfileValidation(t *testing.T) {
	if _, err := NewProfile(nil, predictor.Lorenzo, Options{}); err == nil {
		t.Fatal("nil field accepted")
	}
	f := field(t, "cesm/TS")
	if _, err := NewProfile(f, predictor.Lorenzo2, Options{}); err == nil {
		t.Fatal("rank mismatch accepted")
	}
	if _, err := NewProfile(f, predictor.Kind(99), Options{}); err == nil {
		t.Fatal("unknown predictor accepted")
	}
}

func TestProfileBasics(t *testing.T) {
	f := field(t, "cesm/TS")
	p := profileOf(t, f, predictor.Lorenzo)
	if p.N != f.Len() || p.Range <= 0 || p.DataVar <= 0 {
		t.Fatalf("profile fields: N=%d range=%v var=%v", p.N, p.Range, p.DataVar)
	}
	if len(p.Errors) == 0 || len(p.Errors) >= p.N {
		t.Fatalf("sample size = %d of %d", len(p.Errors), p.N)
	}
	if p.AuxBitsPerValue != 0 {
		t.Fatal("Lorenzo profile has aux bits")
	}
	pr := profileOf(t, f, predictor.Regression)
	if pr.AuxBitsPerValue <= 0 {
		t.Fatal("regression profile lacks aux bits")
	}
}

// The central accuracy claim: the modeled Huffman bit-rate tracks the
// measured one across error bounds (paper Table II reports ~95% accuracy;
// we accept a scattered error rate ≤ 20% on tiny synthetic fields).
func TestBitRateEstimateTracksMeasured(t *testing.T) {
	cases := []struct {
		fieldName string
		kind      predictor.Kind
	}{
		{"cesm/TS", predictor.Lorenzo},
		{"hurricane/U", predictor.Lorenzo},
		{"miranda/vx", predictor.Interpolation},
		{"scale/PRES", predictor.Regression},
	}
	for _, c := range cases {
		f := field(t, c.fieldName)
		p := profileOf(t, f, c.kind)
		var measured, estimated []float64
		for _, rel := range []float64{1e-5, 1e-4, 1e-3, 1e-2} {
			eb := rel * p.Range
			res, err := compressor.Compress(f, compressor.Options{
				Predictor: c.kind, Mode: compressor.ABS, ErrorBound: eb,
			})
			if err != nil {
				t.Fatalf("%s/%s: %v", c.fieldName, c.kind, err)
			}
			est := p.EstimateAt(eb)
			measured = append(measured, res.Stats.BitRateHuffman)
			estimated = append(estimated, est.HuffmanBitRate)
		}
		errRate := quality.AccuracyOfEstimate(measured, estimated)
		if errRate > 0.20 {
			t.Errorf("%s/%s: Huffman bit-rate error rate %.1f%% (measured %v, estimated %v)",
				c.fieldName, c.kind, errRate*100, measured, estimated)
		}
	}
}

func TestPSNREstimateTracksMeasured(t *testing.T) {
	f := field(t, "nyx/temperature")
	p := profileOf(t, f, predictor.Lorenzo)
	var measured, estimated []float64
	for _, rel := range []float64{1e-4, 1e-3, 1e-2, 5e-2} {
		eb := rel * p.Range
		res, err := compressor.Compress(f, compressor.Options{
			Predictor: predictor.Lorenzo, Mode: compressor.ABS, ErrorBound: eb,
		})
		if err != nil {
			t.Fatal(err)
		}
		dec, err := compressor.Decompress(res.Bytes)
		if err != nil {
			t.Fatal(err)
		}
		psnr, err := quality.PSNR(f, dec)
		if err != nil {
			t.Fatal(err)
		}
		est := p.EstimateAt(eb)
		measured = append(measured, psnr)
		estimated = append(estimated, est.PSNR)
		// PSNR estimates should land within a few dB.
		if math.Abs(psnr-est.PSNR) > 6 {
			t.Errorf("eb=%g: PSNR measured %.2f dB vs estimated %.2f dB", eb, psnr, est.PSNR)
		}
	}
	if errRate := quality.AccuracyOfEstimate(measured, estimated); errRate > 0.10 {
		t.Errorf("PSNR error rate %.1f%%", errRate*100)
	}
}

func TestSSIMEstimateTracksMeasured(t *testing.T) {
	f := field(t, "cesm/TS")
	p := profileOf(t, f, predictor.Lorenzo)
	for _, rel := range []float64{1e-3, 1e-2} {
		eb := rel * p.Range
		res, err := compressor.Compress(f, compressor.Options{
			Predictor: predictor.Lorenzo, Mode: compressor.ABS, ErrorBound: eb,
		})
		if err != nil {
			t.Fatal(err)
		}
		dec, err := compressor.Decompress(res.Bytes)
		if err != nil {
			t.Fatal(err)
		}
		ssim, err := quality.GlobalSSIM(f, dec)
		if err != nil {
			t.Fatal(err)
		}
		est := p.EstimateAt(eb)
		if math.Abs(ssim-est.SSIM) > 0.05 {
			t.Errorf("eb=%g: SSIM measured %.4f vs estimated %.4f", eb, ssim, est.SSIM)
		}
	}
}

func TestRefinedErrVarBelowUniformAtHighEB(t *testing.T) {
	f := field(t, "cesm/TS")
	p := profileOf(t, f, predictor.Lorenzo)
	eb := p.Range * 0.1 // very high bound: most errors land in the central bin
	est := p.EstimateAt(eb)
	if est.ZeroShare < 0.5 {
		t.Skipf("premise not met: zero share %v", est.ZeroShare)
	}
	if est.ErrVar >= est.ErrVarUniform {
		t.Fatalf("refined variance %g not below uniform %g at high eb", est.ErrVar, est.ErrVarUniform)
	}
	if est.PSNR <= est.PSNRUniform {
		t.Fatalf("refined PSNR %g should exceed uniform %g at high eb", est.PSNR, est.PSNRUniform)
	}
}

func TestEstimateMonotonicity(t *testing.T) {
	f := field(t, "miranda/vx")
	p := profileOf(t, f, predictor.Interpolation)
	prevBits := math.Inf(1)
	prevPSNR := math.Inf(1)
	for _, rel := range []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1} {
		est := p.EstimateAt(rel * p.Range)
		if est.TotalBitRate > prevBits+1e-9 {
			t.Fatalf("bit-rate not monotone at rel=%g: %v > %v", rel, est.TotalBitRate, prevBits)
		}
		if est.PSNR > prevPSNR+1e-9 {
			t.Fatalf("PSNR not monotone at rel=%g", rel)
		}
		prevBits, prevPSNR = est.TotalBitRate, est.PSNR
	}
}

func TestCorrectionLayerOnlyAtHighP0(t *testing.T) {
	f := field(t, "cesm/TS")
	on := profileOf(t, f, predictor.Lorenzo)
	offOpts := on.Options()
	offOpts.DisableCorrection = true
	off, err := NewProfile(f, predictor.Lorenzo, offOpts)
	if err != nil {
		t.Fatal(err)
	}
	// Low bound: correction must not trigger; estimates identical.
	lowEB := on.Range * 1e-6
	if a, b := on.EstimateAt(lowEB).HuffmanBitRate, off.EstimateAt(lowEB).HuffmanBitRate; a != b {
		t.Fatalf("correction changed low-eb estimate: %v vs %v", a, b)
	}
	// High bound: correction must increase the modeled bit-rate (it spreads
	// probability mass away from the dominant bin).
	highEB := on.quantileAbs(0.95)
	ba := on.EstimateAt(highEB).HuffmanBitRate
	bb := off.EstimateAt(highEB).HuffmanBitRate
	if ba < bb {
		t.Fatalf("correction decreased modeled bit-rate: %v < %v", ba, bb)
	}
}

func TestErrorBoundForBitRateInverts(t *testing.T) {
	f := field(t, "hurricane/U")
	p := profileOf(t, f, predictor.Lorenzo)
	for _, target := range []float64{2.0, 4.0, 8.0} {
		eb, err := p.ErrorBoundForBitRate(target)
		if err != nil {
			t.Fatal(err)
		}
		got := p.EstimateAt(eb).HuffmanBitRate
		if math.Abs(got-target) > 1.0 {
			t.Errorf("target %v bits: solved eb %g gives %v bits", target, eb, got)
		}
	}
	if _, err := p.ErrorBoundForBitRate(0); err == nil {
		t.Fatal("zero target accepted")
	}
}

func TestErrorBoundForBitRateLowRateRegime(t *testing.T) {
	f := field(t, "scale/PRES")
	p := profileOf(t, f, predictor.Lorenzo)
	// Target below 2 bits/value forces the anchor path.
	eb, err := p.ErrorBoundForBitRate(1.2)
	if err != nil {
		t.Fatal(err)
	}
	got := p.EstimateAt(eb).HuffmanBitRate
	if math.Abs(got-1.2) > 0.8 {
		t.Errorf("low-rate target 1.2: solved eb %g gives %v bits", eb, got)
	}
}

func TestErrorBoundForPSNR(t *testing.T) {
	f := field(t, "nyx/temperature")
	p := profileOf(t, f, predictor.Lorenzo)
	for _, target := range []float64{40, 60, 80} {
		eb, err := p.ErrorBoundForPSNR(target)
		if err != nil {
			t.Fatal(err)
		}
		got := p.EstimateAt(eb).PSNR
		if math.Abs(got-target) > 1.5 {
			t.Errorf("target %v dB: eb %g gives %v dB", target, eb, got)
		}
	}
}

func TestErrorBoundForRatio(t *testing.T) {
	f := field(t, "cesm/TS")
	p := profileOf(t, f, predictor.Lorenzo)
	for _, target := range []float64{4, 8, 16} {
		eb, err := p.ErrorBoundForRatio(target)
		if err != nil {
			t.Fatal(err)
		}
		got := p.EstimateAt(eb).Ratio
		if got < target*0.7 || got > target*1.5 {
			t.Errorf("target ratio %v: eb %g gives ratio %v", target, eb, got)
		}
	}
	if _, err := p.ErrorBoundForRatio(0.5); err == nil {
		t.Fatal("ratio < 1 accepted")
	}
}

func TestCurve(t *testing.T) {
	f := field(t, "cesm/TS")
	p := profileOf(t, f, predictor.Lorenzo)
	ebs := []float64{1e-5 * p.Range, 1e-3 * p.Range}
	curve := p.Curve(ebs)
	if len(curve) != 2 {
		t.Fatalf("curve length %d", len(curve))
	}
	if curve[0].AbsErrorBound != ebs[0] || curve[1].TotalBitRate >= curve[0].TotalBitRate {
		t.Fatal("curve not ordered by bound")
	}
}

func TestEstimateSpectrumRatio(t *testing.T) {
	pk := []float64{100, 50, 10, 0}
	r := EstimateSpectrumRatio(pk, 1000, 0.01)
	// add = 1000*0.01 = 10 per mode.
	want := []float64{1.1, 1.2, 2.0, 1.0}
	for i := range want {
		if math.Abs(r[i]-want[i]) > 1e-12 {
			t.Fatalf("ratio[%d] = %v, want %v", i, r[i], want[i])
		}
	}
}

func TestRLEGainProperties(t *testing.T) {
	// No zeros: no gain.
	if g := rleGain(0, 4, 1); g != 1 {
		t.Fatalf("gain with p0=0: %v", g)
	}
	// Overwhelming zeros at 1 bit/value: big gain.
	if g := rleGain(0.999, 1.0, 1); g < 10 {
		t.Fatalf("gain with p0=0.999: %v", g)
	}
	// Gain must never fall below 1 (model skips a harmful stage).
	if g := rleGain(0.3, 6, 1); g < 1 {
		t.Fatalf("gain clamped: %v", g)
	}
}

func TestDegenerateConstantField(t *testing.T) {
	f := grid.MustNew("const", grid.Float32, 64, 64)
	for i := range f.Data {
		f.Data[i] = 3.5
	}
	p, err := NewProfile(f, predictor.Lorenzo, Options{SampleRate: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	est := p.EstimateAt(1e-3)
	if est.TotalBitRate <= 0 {
		t.Fatalf("degenerate bit-rate %v", est.TotalBitRate)
	}
	if est.ZeroShare < 0.99 {
		t.Fatalf("constant field zero share %v", est.ZeroShare)
	}
}

func BenchmarkEstimateAt(b *testing.B) {
	f, err := datagen.GenerateField("nyx/temperature", 1, datagen.Small)
	if err != nil {
		b.Fatal(err)
	}
	p, err := NewProfile(f, predictor.Lorenzo, Options{})
	if err != nil {
		b.Fatal(err)
	}
	eb := p.Range * 1e-4
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.EstimateAt(eb)
	}
}
