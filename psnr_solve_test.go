package rqm_test

import (
	"fmt"
	"math"
	"testing"

	"rqm"
)

// psnrSolveProfile is the profile rqmodel solves on: the prediction codec,
// Lorenzo, ABS, the flate stage, a 1 % sample at seed 42.
func psnrSolveProfile(t *testing.T, f *rqm.Field) (rqm.Codec, rqm.CodecOptions, *rqm.Profile) {
	t.Helper()
	c, err := rqm.CodecByName(rqm.CodecPredictionName)
	if err != nil {
		t.Fatal(err)
	}
	copts := rqm.CodecOptions{Predictor: rqm.Lorenzo, Mode: rqm.ABS, Lossless: rqm.LosslessFlate}
	p, err := c.Profile(f, copts, rqm.ModelOptions{SampleRate: 0.01, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return c, copts, p
}

// TestPSNRSolvePastThePlateauPinned: brown/pressure (Small, seed 42) models
// 64.77 dB at its whole value range, so a 60 dB target lies past the
// model's plateau. The solve answers the certificate R·10^(−60/20) =
// 0.01737, where it answered the range, 17.37.
func TestPSNRSolvePastThePlateauPinned(t *testing.T) {
	f, err := rqm.GenerateField("brown/pressure", 42, rqm.ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	_, _, p := psnrSolveProfile(t, f)
	eb, err := p.ErrorBoundForPSNR(60)
	if err != nil {
		t.Fatal(err)
	}
	if want := p.Range * math.Pow(10, -3); eb != want || math.Abs(eb-0.01737) > 5e-6 {
		t.Fatalf("PSNR 60 on brown/pressure (range %g) solves to %g, want the certificate %g ≈ 0.01737", p.Range, eb, want)
	}
}

// TestPSNRSolveMatrix: on every datagen field (Tiny, seed 42) and every
// target T ∈ {20, 30, 40, 60, 80} dB, no PSNR solve answers the whole value
// range, and every cell past the model's plateau — the model's PSNR at the
// range above T, where the solve answers the certificate — delivers at
// least T once compressed at its bound and decompressed.
func TestPSNRSolveMatrix(t *testing.T) {
	plateau := 0
	for _, name := range rqm.DatasetNames() {
		ds, err := rqm.GenerateDataset(name, 42, rqm.ScaleTiny)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range ds.Fields {
			c, copts, p := psnrSolveProfile(t, f)
			for _, target := range []float64{20, 30, 40, 60, 80} {
				cell := fmt.Sprintf("%s at %g dB", f.Name, target)
				eb, err := p.ErrorBoundForPSNR(target)
				if err != nil {
					t.Fatalf("%s: %v", cell, err)
				}
				if !(eb < p.Range) {
					t.Fatalf("%s solves to %g, the value range %g", cell, eb, p.Range)
				}
				if !(p.EstimateAt(p.Range).PSNR > target) {
					continue
				}
				plateau++
				copts.ErrorBound = eb
				payload, err := c.Compress(f, copts)
				if err != nil {
					t.Fatalf("%s: %v", cell, err)
				}
				back, err := c.Decompress(nil, payload)
				if err != nil {
					t.Fatalf("%s: %v", cell, err)
				}
				got, err := rqm.PSNR(f, back)
				if err != nil {
					t.Fatalf("%s: %v", cell, err)
				}
				if got < target {
					t.Errorf("%s: the certificate bound %g delivers %.2f dB", cell, eb, got)
				}
			}
		}
	}
	t.Logf("%d cells past the model's plateau", plateau)
}
