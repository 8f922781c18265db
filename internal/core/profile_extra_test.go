package core

import (
	"math"
	"testing"

	"rqm/internal/datagen"
	"rqm/internal/grid"
	"rqm/internal/predictor"
)

func TestNewProfileFromSamplesValidation(t *testing.T) {
	if _, err := NewProfileFromSamples(predictor.Lorenzo, nil, []int{4}, 4, 32, 1, 1, Options{}); err == nil {
		t.Fatal("empty samples accepted")
	}
	if _, err := NewProfileFromSamples(predictor.Lorenzo, []float64{0.1}, []int{4}, 0, 32, 1, 1, Options{}); err == nil {
		t.Fatal("zero N accepted")
	}
	p, err := NewProfileFromSamples(predictor.Lorenzo, []float64{0.1, -0.2, 0.05}, []int{8}, 8, 32, 2, 0.5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p.N != 8 || p.Range != 2 || p.DataVar != 0.5 {
		t.Fatalf("profile fields: %+v", p)
	}
	est := p.EstimateAt(0.1)
	if est.TotalBitRate <= 0 {
		t.Fatalf("estimate from samples: %+v", est)
	}
}

func TestExactZeroFracDetectsSparsity(t *testing.T) {
	// Half exact zeros, half spread errors.
	samples := make([]float64, 100)
	for i := 50; i < 100; i++ {
		samples[i] = 0.1 * float64(i-49)
	}
	p, err := NewProfileFromSamples(predictor.Lorenzo, samples, []int{100}, 100, 32, 10, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.ExactZeroFrac()-0.5) > 0.01 {
		t.Fatalf("exact-zero fraction = %v, want 0.5", p.ExactZeroFrac())
	}
}

func TestSparseFieldKeepsHighRLEGain(t *testing.T) {
	// A field that is 99.7% exactly constant: the sparsity exemption must
	// let the modeled RLE gain rise beyond the dense-field feedback cap
	// (zero share clamped at 0.98 → gain ≤ 1/(C1·0.02)).
	f := grid.MustNew("sparse", grid.Float32, 100, 100)
	for i := 9970; i < 10000; i++ {
		f.Data[i] = math.Sin(float64(i))
	}
	p, err := NewProfile(f, predictor.Lorenzo, Options{SampleRate: 0.5, UseLossless: true})
	if err != nil {
		t.Fatal(err)
	}
	if p.ExactZeroFrac() < 0.98 {
		t.Skipf("premise: exact zeros = %v", p.ExactZeroFrac())
	}
	est := p.EstimateAt(0.05)
	denseCap := 1 / (rleC1Bits * 0.02) // gain at the dense clamp
	if est.RLEGain < denseCap {
		t.Fatalf("sparse RLE gain %v below dense cap %v", est.RLEGain, denseCap)
	}
}

func TestUnpredShareMonotone(t *testing.T) {
	f, err := datagen.GenerateField("hurricane/U", 42, datagen.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProfile(f, predictor.Lorenzo, Options{SampleRate: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	// From bounds so tight that nearly every code overflows ±DefaultRadius
	// to bounds where none does.
	prev := 2.0
	for _, rel := range []float64{1e-11, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3} {
		est := p.EstimateAt(rel * p.Range)
		if est.UnpredShare > prev+1e-12 {
			t.Fatalf("unpredictable share not monotone at rel=%g", rel)
		}
		if rel == 1e-11 && est.UnpredShare < 0.5 {
			t.Fatalf("premise: unpredictable share %v at rel=1e-11", est.UnpredShare)
		}
		prev = est.UnpredShare
	}
}

func TestEstimateSSIMBounds(t *testing.T) {
	f, err := datagen.GenerateField("cesm/TS", 42, datagen.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProfile(f, predictor.Lorenzo, Options{SampleRate: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	for _, rel := range []float64{1e-6, 1e-3, 1e-1} {
		est := p.EstimateAt(rel * p.Range)
		if est.SSIM <= 0 || est.SSIM > 1 || est.SSIMUniform <= 0 || est.SSIMUniform > 1 {
			t.Fatalf("SSIM estimates out of range at rel=%g: %v / %v", rel, est.SSIM, est.SSIMUniform)
		}
	}
}

func TestOptionsNormalization(t *testing.T) {
	o := Options{}.normalize()
	if o.SampleRate != 0.01 {
		t.Fatalf("defaults: %+v", o)
	}
	if c2For(predictor.Regression) != 0 {
		t.Fatal("regression should have no correction factor")
	}
}

func TestEstimateAtNonPositiveBound(t *testing.T) {
	f, err := datagen.GenerateField("cesm/TS", 42, datagen.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProfile(f, predictor.Lorenzo, Options{SampleRate: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	est := p.EstimateAt(0)
	if est.TotalBitRate != 0 || est.Ratio != 0 {
		t.Fatalf("zero bound should return zero estimate, got %+v", est)
	}
	est = p.EstimateAt(math.NaN())
	if est.TotalBitRate != 0 {
		t.Fatalf("NaN bound should return zero estimate")
	}
}
