package rqm_test

import (
	"math"
	"testing"

	"rqm"
)

func TestPublicAPIEndToEnd(t *testing.T) {
	f, err := rqm.GenerateField("cesm/TS", 42, rqm.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := rqm.NewProfile(f, rqm.Lorenzo, rqm.ModelOptions{SampleRate: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	eb := prof.Range * 1e-3
	est := prof.EstimateAt(eb)
	if est.Ratio <= 1 || est.PSNR <= 0 {
		t.Fatalf("estimate: ratio=%v psnr=%v", est.Ratio, est.PSNR)
	}
	eng, err := rqm.NewEngine(rqm.WithPredictor(rqm.Lorenzo), rqm.WithMode(rqm.ABS),
		rqm.WithErrorBound(eb), rqm.WithLossless(rqm.LosslessFlate))
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Compress(f)
	if err != nil {
		t.Fatal(err)
	}
	back, err := rqm.Decompress(res.Bytes)
	if err != nil {
		t.Fatal(err)
	}
	if err := rqm.VerifyErrorBound(f, back, rqm.ABS, eb); err != nil {
		t.Fatal(err)
	}
	psnr, err := rqm.PSNR(f, back)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(psnr-est.PSNR) > 6 {
		t.Errorf("model PSNR %.2f vs measured %.2f", est.PSNR, psnr)
	}
	ssim, err := rqm.GlobalSSIM(f, back)
	if err != nil || ssim <= 0 || ssim > 1 {
		t.Fatalf("ssim = %v, %v", ssim, err)
	}
}

func TestPublicUseCases(t *testing.T) {
	f, err := rqm.GenerateField("hurricane/U", 42, rqm.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	opts := rqm.ModelOptions{SampleRate: 0.2}
	lo, hi := f.ValueRange()

	choices, err := rqm.SelectPredictor(f,
		[]rqm.PredictorKind{rqm.Lorenzo, rqm.Interpolation}, (hi-lo)*1e-3, opts)
	if err != nil || len(choices) != 2 {
		t.Fatalf("SelectPredictor: %v, %d choices", err, len(choices))
	}

	prof, err := rqm.NewProfile(f, rqm.Lorenzo, opts)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := rqm.NewEngine(rqm.WithPredictor(rqm.Lorenzo))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := eng.CompressToBudget(f, prof, f.OriginalBytes()/8, 0.2, true)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Result.Stats.CompressedBytes > plan.BudgetBytes {
		t.Fatal("budget plan overflowed")
	}

	ds, err := rqm.GenerateDataset("rtm", 42, rqm.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	var profiles []*rqm.Profile
	for _, snap := range ds.Fields {
		p, err := rqm.NewProfile(snap, rqm.Interpolation, opts)
		if err != nil {
			t.Fatal(err)
		}
		profiles = append(profiles, p)
	}
	allocs, err := rqm.OptimizePartitionsForPSNR(profiles, 60)
	if err != nil || len(allocs) != len(profiles) {
		t.Fatalf("OptimizePartitions: %v, %d allocs", err, len(allocs))
	}

	pts := rqm.RateDistortion(prof, 1e-5, 1e-2, 8)
	if len(pts) != 8 {
		t.Fatalf("RateDistortion points = %d", len(pts))
	}
}

func TestPublicDatasetCatalog(t *testing.T) {
	names := rqm.DatasetNames()
	if len(names) != 10 {
		t.Fatalf("datasets = %d", len(names))
	}
	cfg := rqm.DefaultCluster()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.Ranks != 128 {
		t.Fatalf("default ranks = %d", cfg.Ranks)
	}
}

func TestPublicFieldConstruction(t *testing.T) {
	f, err := rqm.NewField("x", rqm.Float32, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if f.Len() != 16 {
		t.Fatalf("len = %d", f.Len())
	}
	g, err := rqm.FieldFromData("y", rqm.Float64, []float64{1, 2, 3, 4}, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if g.At(1, 1) != 4 {
		t.Fatalf("At = %v", g.At(1, 1))
	}
	if _, err := rqm.MSE(f, g); err == nil {
		t.Fatal("size mismatch accepted")
	}
}
