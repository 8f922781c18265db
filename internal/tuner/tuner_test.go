package tuner

import (
	"math"
	"testing"

	"rqm/internal/codec"
	"rqm/internal/compressor"
	"rqm/internal/core"
	"rqm/internal/datagen"
	"rqm/internal/grid"
	"rqm/internal/predictor"
	"rqm/internal/quality"
)

var modelOpts = core.Options{SampleRate: 0.2, Seed: 3, UseLossless: true}

func predCodec(t testing.TB) codec.Codec {
	t.Helper()
	c, err := codec.ByID(codec.IDPrediction)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func field(t testing.TB, name string) *grid.Field {
	t.Helper()
	f, err := datagen.GenerateField(name, 42, datagen.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestSelectPredictorRanksByModel(t *testing.T) {
	f := field(t, "cesm/TS")
	kinds := []predictor.Kind{predictor.Lorenzo, predictor.Interpolation, predictor.Regression}
	lo, hi := f.ValueRange()
	choices, err := SelectPredictor(f, kinds, (hi-lo)*1e-3, modelOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(choices) != 3 {
		t.Fatalf("choices = %d", len(choices))
	}
	for i := 1; i < len(choices); i++ {
		if choices[i].Estimate.TotalBitRate < choices[i-1].Estimate.TotalBitRate-1e-9 {
			t.Fatal("choices not sorted by modeled bit-rate")
		}
	}
	// The model's winner should be at worst second-best in measured ratio.
	measured := map[predictor.Kind]float64{}
	for _, k := range kinds {
		res, err := compressor.Compress(f, compressor.Options{Predictor: k, Mode: compressor.ABS, ErrorBound: (hi - lo) * 1e-3})
		if err != nil {
			t.Fatal(err)
		}
		measured[k] = res.Stats.Ratio
	}
	bestMeasured := kinds[0]
	for _, k := range kinds[1:] {
		if measured[k] > measured[bestMeasured] {
			bestMeasured = k
		}
	}
	rankOfWinner := -1
	for i, c := range choices {
		if c.Kind == bestMeasured {
			rankOfWinner = i
			break
		}
	}
	if rankOfWinner > 1 {
		t.Errorf("measured best %s ranked %d by the model (choices: %+v, measured: %v)",
			bestMeasured, rankOfWinner, choices, measured)
	}
}

func TestSelectPredictorEmpty(t *testing.T) {
	f := field(t, "cesm/TS")
	if _, err := SelectPredictor(f, nil, 1e-3, modelOpts); err == nil {
		t.Fatal("empty candidates accepted")
	}
}

func TestRateDistortionMonotone(t *testing.T) {
	f := field(t, "miranda/vx")
	p, err := core.NewProfile(f, predictor.Interpolation, modelOpts)
	if err != nil {
		t.Fatal(err)
	}
	pts := RateDistortion(p, 1e-6, 1e-1, 12)
	if len(pts) != 12 {
		t.Fatalf("points = %d", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].AbsErrorBound <= pts[i-1].AbsErrorBound {
			t.Fatal("bounds not increasing")
		}
		if pts[i].BitRate > pts[i-1].BitRate+1e-9 {
			t.Fatal("bit-rate not decreasing along sweep")
		}
	}
}

func TestCompressToBudgetFits(t *testing.T) {
	f := field(t, "hurricane/U")
	p, err := core.NewProfile(f, predictor.Lorenzo, modelOpts)
	if err != nil {
		t.Fatal(err)
	}
	budget := f.OriginalBytes() / 8 // demand 8x reduction
	plan, err := CompressToBudget(f, p, predCodec(t), budget, 0.2, true,
		codec.Options{Predictor: predictor.Lorenzo})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Result.Stats.CompressedBytes > budget {
		t.Fatalf("strict plan overflowed: %d > %d", plan.Result.Stats.CompressedBytes, budget)
	}
	if plan.TargetBitRate <= 0 || plan.ErrorBound <= 0 {
		t.Fatalf("plan fields: %+v", plan)
	}
	// Verify the error bound still holds end to end (routed decompression).
	dec, err := codec.Decompress(plan.Result.Bytes)
	if err != nil {
		t.Fatal(err)
	}
	if err := compressor.VerifyErrorBound(f, dec, compressor.ABS, plan.ErrorBound); err != nil {
		t.Fatal(err)
	}
}

func TestCompressToBudgetValidation(t *testing.T) {
	f := field(t, "hurricane/U")
	p, err := core.NewProfile(f, predictor.Lorenzo, modelOpts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CompressToBudget(f, p, predCodec(t), 0, 0.2, true,
		codec.Options{Predictor: predictor.Lorenzo}); err == nil {
		t.Fatal("zero budget accepted")
	}
}

func TestOptimizePartitionsForPSNRMeetsTarget(t *testing.T) {
	snaps, err := datagen.Generate("rtm", 9, datagen.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	var profiles []*core.Profile
	for _, f := range snaps.Fields {
		p, err := core.NewProfile(f, predictor.Interpolation, modelOpts)
		if err != nil {
			t.Fatal(err)
		}
		profiles = append(profiles, p)
	}
	const target = 60.0
	allocs, err := OptimizePartitionsForPSNR(profiles, target)
	if err != nil {
		t.Fatal(err)
	}
	if len(allocs) != len(profiles) {
		t.Fatalf("allocs = %d", len(allocs))
	}
	errVar, bits := AggregateOf(profiles, allocs)
	globalRange := 0.0
	for _, p := range profiles {
		if p.Range > globalRange {
			globalRange = p.Range
		}
	}
	aggPSNR := 20*math.Log10(globalRange) - 10*math.Log10(errVar)
	if aggPSNR < target-0.5 {
		t.Fatalf("aggregate PSNR %.2f below target %v", aggPSNR, target)
	}
	// Non-uniform allocation should beat the uniform-eb baseline: find the
	// single eb meeting the same target and compare total bits.
	uniformBits := uniformBaselineBits(t, profiles, target, globalRange)
	if bits > uniformBits*1.05 {
		t.Errorf("optimized bits %.3f worse than uniform baseline %.3f", bits, uniformBits)
	}
}

// uniformBaselineBits finds one shared error bound meeting the aggregate
// PSNR target (bisection over the shared bound) and returns aggregate bits.
func uniformBaselineBits(t *testing.T, profiles []*core.Profile, target, globalRange float64) float64 {
	t.Helper()
	targetVar := globalRange * globalRange / math.Pow(10, target/10)
	lo, hi := 1e-12*globalRange, globalRange
	for i := 0; i < 60; i++ {
		mid := math.Sqrt(lo * hi)
		var v, n float64
		for _, p := range profiles {
			v += float64(p.N) * p.EstimateAt(mid).ErrVar
			n += float64(p.N)
		}
		if v/n <= targetVar {
			lo = mid
		} else {
			hi = mid
		}
	}
	var bits, n float64
	for _, p := range profiles {
		bits += float64(p.N) * p.EstimateAt(lo).TotalBitRate
		n += float64(p.N)
	}
	return bits / n
}

func TestOptimizeEmptyPartitions(t *testing.T) {
	if _, err := OptimizePartitionsForPSNR(nil, 60); err == nil {
		t.Fatal("empty partitions accepted")
	}
}

func TestTAESelectErrorBound(t *testing.T) {
	f := field(t, "nyx/temperature")
	lo, hi := f.ValueRange()
	rng := hi - lo
	candidates := []float64{rng * 1e-5, rng * 1e-4, rng * 1e-3, rng * 1e-2}
	out, err := TAESelectErrorBound(f, predCodec(t), codec.Options{Predictor: predictor.Lorenzo}, candidates, 60)
	if err != nil {
		t.Fatal(err)
	}
	if out.Trials != len(candidates) {
		t.Fatalf("trials = %d", out.Trials)
	}
	if math.IsNaN(out.ErrorBound) || out.PSNR < 60 {
		t.Fatalf("selected eb=%v psnr=%v", out.ErrorBound, out.PSNR)
	}
	// The TAE pick must be the largest candidate meeting the target: verify
	// the next larger candidate fails it.
	idx := -1
	for i, c := range candidates {
		if c == out.ErrorBound {
			idx = i
		}
	}
	if idx < 0 {
		t.Fatal("selected bound not among candidates")
	}
	if idx+1 < len(candidates) {
		res, _ := compressor.Compress(f, compressor.Options{Predictor: predictor.Lorenzo, Mode: compressor.ABS, ErrorBound: candidates[idx+1]})
		dec, _ := compressor.Decompress(res.Bytes)
		psnr, _ := quality.PSNR(f, dec)
		if psnr >= 60 {
			t.Fatalf("TAE under-selected: candidate %v also meets target (%.2f dB)", candidates[idx+1], psnr)
		}
	}
}

func TestTAESelectErrorBoundNoCandidateMeets(t *testing.T) {
	f := field(t, "nyx/temperature")
	lo, hi := f.ValueRange()
	if _, err := TAESelectErrorBound(f, predCodec(t), codec.Options{Predictor: predictor.Lorenzo},
		[]float64{(hi - lo) * 0.5}, 200); err == nil {
		t.Fatal("unreachable target accepted")
	}
}

func TestSelectCodecRanksAllRegisteredBackends(t *testing.T) {
	f := field(t, "nyx/temperature")
	choices, err := SelectCodec(f, codec.All(), 60, codec.Options{Predictor: predictor.Lorenzo}, modelOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(choices) != len(codec.All()) {
		t.Fatalf("choices = %d, registered codecs = %d", len(choices), len(codec.All()))
	}
	for i, c := range choices {
		if c.ErrorBound <= 0 || c.Estimate.TotalBitRate <= 0 {
			t.Fatalf("choice %d (%s): eb=%v bits=%v", i, c.Codec.Name(), c.ErrorBound, c.Estimate.TotalBitRate)
		}
		if i > 0 && c.Estimate.TotalBitRate < choices[i-1].Estimate.TotalBitRate-1e-9 {
			t.Fatal("choices not sorted by modeled bit-rate")
		}
		// The winner must actually deliver a working round trip at its bound.
		res, err := codec.Compress(c.Codec, f, codec.Options{
			Predictor: predictor.Lorenzo, Mode: compressor.ABS, ErrorBound: c.ErrorBound,
		})
		if err != nil {
			t.Fatal(err)
		}
		dec, err := codec.Decompress(res.Bytes)
		if err != nil {
			t.Fatal(err)
		}
		if err := compressor.VerifyErrorBound(f, dec, compressor.ABS, c.ErrorBound); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSelectCodecEmpty(t *testing.T) {
	f := field(t, "cesm/TS")
	if _, err := SelectCodec(f, nil, 60, codec.Options{}, modelOpts); err == nil {
		t.Fatal("empty codec list accepted")
	}
}

func TestSwitchPointDetectsCrossover(t *testing.T) {
	// Build two synthetic profiles from fields engineered so the ranking
	// flips with bit-rate; if no crossover exists on real data the function
	// must simply report ok=false without error — exercise both paths using
	// RTM (where the paper found one) and accept either outcome, then check
	// the reported point is inside the sweep range when found.
	snaps, err := datagen.Generate("rtm", 5, datagen.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	f := snaps.Fields[len(snaps.Fields)-1]
	pa, err := core.NewProfile(f, predictor.Lorenzo, modelOpts)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := core.NewProfile(f, predictor.InterpolationCubic, modelOpts)
	if err != nil {
		t.Fatal(err)
	}
	if bits, ok := SwitchPoint(pa, pb, 0.5, 16, 24); ok {
		if bits < 0.5 || bits > 16 {
			t.Fatalf("switch point %v outside sweep", bits)
		}
	}
}
