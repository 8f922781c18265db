package experiments

import (
	"fmt"
	"io"
	"math"
	"time"

	"rqm/internal/codec"
	"rqm/internal/compressor"
	"rqm/internal/core"
	"rqm/internal/datagen"
	"rqm/internal/predictor"
	"rqm/internal/stats"
	"rqm/internal/tuner"
)

// Figure9Result compares the optimization cost of the model against the
// trial-and-error approach (paper Fig. 9: 18.7× average speedup on RTM).
type Figure9Result struct {
	// ModelTime: one-time sampling plus estimates for all (eb, predictor)
	// combinations.
	ModelTime time.Duration
	// TAETime: one full compression per combination, with stage breakdown.
	TAETime        time.Duration
	TAEPredictTime time.Duration
	TAEEncodeTime  time.Duration
	TAELossless    time.Duration
	// Speedup is TAETime / ModelTime.
	Speedup float64
	// Combinations is the number of (eb, predictor) pairs evaluated.
	Combinations int
}

// Figure9 measures both optimization paths on RTM-like snapshots with 7
// candidate error bounds and 2 predictor candidates, as in the paper.
func Figure9(cfg Config, w io.Writer) (*Figure9Result, error) {
	ds, err := datagen.Generate("rtm", cfg.Seed, cfg.Scale)
	if err != nil {
		return nil, err
	}
	fields := ds.Fields
	if len(fields) > 3 {
		fields = fields[:3] // the paper averages across 3 RTM datasets
	}
	kinds := []predictor.Kind{predictor.Lorenzo, predictor.Interpolation}
	rels := []float64{1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1}
	out := &Figure9Result{Combinations: len(kinds) * len(rels) * len(fields)}

	// Model path: one profile per (field, predictor), then O(sample)
	// estimates per bound.
	tModel := time.Now()
	for _, f := range fields {
		for _, k := range kinds {
			prof, err := core.NewProfile(f, k, cfg.modelOptions())
			if err != nil {
				return nil, err
			}
			for _, eb := range ebsFor(f, rels) {
				_ = prof.EstimateAt(eb)
			}
		}
	}
	out.ModelTime = time.Since(tModel)

	// Trial-and-error path: full compression per combination.
	tTAE := time.Now()
	for _, f := range fields {
		for _, k := range kinds {
			for _, eb := range ebsFor(f, rels) {
				res, err := compressAt(f, k, eb, compressor.LosslessFlate)
				if err != nil {
					return nil, err
				}
				out.TAEPredictTime += res.Stats.PredictTime
				out.TAEEncodeTime += res.Stats.EncodeTime
				out.TAELossless += res.Stats.LosslessTime
			}
		}
	}
	out.TAETime = time.Since(tTAE)
	if out.ModelTime > 0 {
		out.Speedup = float64(out.TAETime) / float64(out.ModelTime)
	}
	tw := newTable(w)
	row(tw, "approach", "total", "predict", "encode", "lossless")
	row(tw, "model", out.ModelTime.Round(time.Microsecond), "-", "-", "-")
	row(tw, "trial-and-error", out.TAETime.Round(time.Microsecond),
		out.TAEPredictTime.Round(time.Microsecond), out.TAEEncodeTime.Round(time.Microsecond),
		out.TAELossless.Round(time.Microsecond))
	if err := tw.Flush(); err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "speedup: %.1fx over %d combinations\n", out.Speedup, out.Combinations)
	return out, nil
}

// Figure10Series is one predictor's modeled and measured rate-distortion.
type Figure10Series struct {
	Kind     predictor.Kind
	Modeled  []tuner.RatePoint
	Measured []tuner.RatePoint
}

// Figure10Result carries all series plus the detected switch point.
type Figure10Result struct {
	Series []Figure10Series
	// SwitchBits is the bit-rate below which interpolation overtakes
	// Lorenzo in the model (paper: ≈1.89 on RTM); NaN if no crossover.
	SwitchBits float64
}

// Figure10 reproduces the predictor-selection rate-distortion study on an
// RTM-like snapshot (paper Fig. 10).
func Figure10(cfg Config, w io.Writer) (*Figure10Result, error) {
	f, err := cfg.field("rtm/snapshot_3")
	if err != nil {
		return nil, err
	}
	out := &Figure10Result{SwitchBits: math.NaN()}
	kinds := []predictor.Kind{predictor.Lorenzo, predictor.Interpolation, predictor.InterpolationCubic}
	profiles := map[predictor.Kind]*core.Profile{}
	tw := newTable(w)
	row(tw, "predictor", "relEB", "modelBits", "modelPSNR", "measBits", "measPSNR")
	rels := []float64{1e-5, 1e-4, 1e-3, 1e-2}
	for _, k := range kinds {
		prof, err := core.NewProfile(f, k, cfg.modelOptions())
		if err != nil {
			return nil, err
		}
		profiles[k] = prof
		s := Figure10Series{Kind: k}
		s.Modeled = tuner.RateDistortion(prof, 1e-6, 1e-1, 16)
		for i, eb := range ebsFor(f, rels) {
			res, psnr, err := trialPSNR(f, k, eb, compressor.LosslessFlate)
			if err != nil {
				return nil, err
			}
			mp := tuner.RatePoint{AbsErrorBound: eb, BitRate: res.Stats.BitRate, PSNR: psnr}
			s.Measured = append(s.Measured, mp)
			est := prof.EstimateAt(eb)
			row(tw, k.String(), fmt.Sprintf("%.0e", rels[i]),
				fmt.Sprintf("%.3f", est.TotalBitRate), fmt.Sprintf("%.2f", est.PSNR),
				fmt.Sprintf("%.3f", mp.BitRate), fmt.Sprintf("%.2f", mp.PSNR))
		}
		out.Series = append(out.Series, s)
	}
	if bits, ok := tuner.SwitchPoint(profiles[predictor.Lorenzo], profiles[predictor.Interpolation], 0.5, 16, 32); ok {
		out.SwitchBits = bits
	}
	if err := tw.Flush(); err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "modeled predictor switch point: %.2f bits/value\n", out.SwitchBits)
	return out, nil
}

// Figure11Group is one random memory-budget trial.
type Figure11Group struct {
	Snapshot    string
	BudgetBytes int64
	UsedBytes   int64
	// UsedFrac = UsedBytes/BudgetBytes; the paper's Fig. 11 shows these
	// clustering near the 80% target with rare overflows.
	UsedFrac   float64
	Overflowed bool
}

// Figure11 reproduces the memory-limit control study (paper Fig. 11): 15
// random (snapshot, budget) pairs compressed to budget with 20% headroom.
func Figure11(cfg Config, w io.Writer) ([]Figure11Group, error) {
	ds, err := datagen.Generate("rtm", cfg.Seed, cfg.Scale)
	if err != nil {
		return nil, err
	}
	rng := stats.NewXorShift64(cfg.Seed + 7)
	predCodec, err := codec.ByID(codec.IDPrediction)
	if err != nil {
		return nil, err
	}
	var out []Figure11Group
	tw := newTable(w)
	row(tw, "group", "snapshot", "budget", "used", "used/budget", "overflow")
	for g := 0; g < 15; g++ {
		f := ds.Fields[rng.Intn(len(ds.Fields))]
		prof, err := core.NewProfile(f, predictor.Interpolation, cfg.modelOptions())
		if err != nil {
			return nil, err
		}
		// Random target ratio between 8x and 64x.
		ratio := 8 * math.Pow(2, 3*rng.Float64())
		budget := int64(float64(f.OriginalBytes()) / ratio)
		plan, err := tuner.CompressToBudget(f, prof, predCodec, budget, 0.2, false,
			codec.Options{Predictor: predictor.Interpolation, Lossless: compressor.LosslessFlate})
		if err != nil {
			return nil, err
		}
		grp := Figure11Group{
			Snapshot:    f.Name,
			BudgetBytes: budget,
			UsedBytes:   plan.Result.Stats.CompressedBytes,
			UsedFrac:    float64(plan.Result.Stats.CompressedBytes) / float64(budget),
			Overflowed:  plan.Overflowed,
		}
		out = append(out, grp)
		row(tw, g+1, grp.Snapshot, grp.BudgetBytes, grp.UsedBytes,
			fmt.Sprintf("%.3f", grp.UsedFrac), grp.Overflowed)
	}
	return out, tw.Flush()
}

// Figure12Result reports per-timestep error-bound optimization.
type Figure12Result struct {
	// PerStepEB are the optimized absolute bounds per snapshot.
	PerStepEB []float64
	// OptBits / UniformBits: aggregate bits per value under the optimized
	// and uniform allocations at equal aggregate quality.
	OptBits, UniformBits float64
	// ExtraRatioPct is the paper's headline: extra compression ratio at the
	// same post-hoc quality (+13% in the paper).
	ExtraRatioPct float64
}

// Figure12 reproduces the in-situ fine-grained optimization study (paper
// Fig. 12): per-timestep error bounds for the RTM stack.
func Figure12(cfg Config, w io.Writer) (*Figure12Result, error) {
	ds, err := datagen.Generate("rtm", cfg.Seed, cfg.Scale)
	if err != nil {
		return nil, err
	}
	var profiles []*core.Profile
	for _, f := range ds.Fields {
		p, err := core.NewProfile(f, predictor.Interpolation, cfg.modelOptions())
		if err != nil {
			return nil, err
		}
		profiles = append(profiles, p)
	}
	const targetPSNR = 60.0
	allocs, err := tuner.OptimizePartitionsForPSNR(profiles, targetPSNR)
	if err != nil {
		return nil, err
	}
	out := &Figure12Result{}
	_, out.OptBits = tuner.AggregateOf(profiles, allocs)

	// Uniform baseline: a single shared bound hitting the same aggregate
	// quality (bisection over the shared bound).
	globalRange := 0.0
	for _, p := range profiles {
		if p.Range > globalRange {
			globalRange = p.Range
		}
	}
	uniform := func(eb float64) []tuner.PartitionAllocation {
		out := make([]tuner.PartitionAllocation, len(profiles))
		for i, p := range profiles {
			out[i] = tuner.PartitionAllocation{ErrorBound: eb, Estimate: p.EstimateAt(eb)}
		}
		return out
	}
	targetVar := globalRange * globalRange / math.Pow(10, targetPSNR/10)
	lo, hi := globalRange*1e-12, globalRange
	for i := 0; i < 60; i++ {
		mid := math.Sqrt(lo * hi)
		if v, _ := tuner.AggregateOf(profiles, uniform(mid)); v <= targetVar {
			lo = mid
		} else {
			hi = mid
		}
	}
	_, out.UniformBits = tuner.AggregateOf(profiles, uniform(lo))
	if out.OptBits > 0 {
		out.ExtraRatioPct = (out.UniformBits/out.OptBits - 1) * 100
	}
	tw := newTable(w)
	row(tw, "timestep", "optimized eb", "bits/value", "uniform eb")
	for i, a := range allocs {
		out.PerStepEB = append(out.PerStepEB, a.ErrorBound)
		row(tw, i+1, fmt.Sprintf("%.4g", a.ErrorBound),
			fmt.Sprintf("%.3f", a.Estimate.TotalBitRate), fmt.Sprintf("%.4g", lo))
	}
	if err := tw.Flush(); err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "aggregate bits/value: optimized %.3f vs uniform %.3f (extra ratio %+.1f%%)\n",
		out.OptBits, out.UniformBits, out.ExtraRatioPct)
	return out, nil
}
