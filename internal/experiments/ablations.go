package experiments

import (
	"fmt"
	"io"
	"math"

	"rqm/internal/compressor"
	"rqm/internal/core"
	"rqm/internal/predictor"
	"rqm/internal/quality"
)

// AblationResult compares a design choice ON vs OFF by an error-rate metric
// (lower is better).
type AblationResult struct {
	Name    string
	WithOn  float64
	WithOff float64
}

// AblationCorrectionLayer quantifies Eq. 9's contribution: Huffman bit-rate
// error rate with and without the bin-transfer correction at high error
// bounds (DESIGN.md §15).
func AblationCorrectionLayer(cfg Config, w io.Writer) (*AblationResult, error) {
	f, err := cfg.field("cesm/TS")
	if err != nil {
		return nil, err
	}
	on, err := core.NewProfile(f, predictor.Lorenzo, cfg.modelOptions())
	if err != nil {
		return nil, err
	}
	offOpts := cfg.modelOptions()
	offOpts.DisableCorrection = true
	off, err := core.NewProfile(f, predictor.Lorenzo, offOpts)
	if err != nil {
		return nil, err
	}
	// High-bound sweep where reconstruction feedback matters.
	rels := []float64{5e-3, 1e-2, 2e-2, 5e-2, 1e-1}
	var meas, estOn, estOff []float64
	for _, eb := range ebsFor(f, rels) {
		res, err := compressAt(f, predictor.Lorenzo, eb, compressor.LosslessNone)
		if err != nil {
			return nil, err
		}
		meas = append(meas, res.Stats.BitRateHuffman)
		estOn = append(estOn, on.EstimateAt(eb).HuffmanBitRate)
		estOff = append(estOff, off.EstimateAt(eb).HuffmanBitRate)
	}
	out := &AblationResult{
		Name:    "correction-layer",
		WithOn:  quality.AccuracyOfEstimate(meas, estOn),
		WithOff: quality.AccuracyOfEstimate(meas, estOff),
	}
	fmt.Fprintf(w, "correction layer: error rate %s (on) vs %s (off)\n", pct(out.WithOn), pct(out.WithOff))
	return out, nil
}

// AblationErrorDistribution quantifies Eq. 11 vs Eq. 10: PSNR estimation
// error with the refined vs uniform error distribution at high bounds.
func AblationErrorDistribution(cfg Config, w io.Writer) (*AblationResult, error) {
	f, err := cfg.field("nyx/dark_matter_density")
	if err != nil {
		return nil, err
	}
	prof, err := core.NewProfile(f, predictor.Lorenzo, cfg.modelOptions())
	if err != nil {
		return nil, err
	}
	rels := []float64{1e-2, 3e-2, 1e-1}
	var meas, refined, uniform []float64
	for _, eb := range ebsFor(f, rels) {
		_, psnr, err := trialPSNR(f, predictor.Lorenzo, eb, compressor.LosslessNone)
		if err != nil {
			return nil, err
		}
		est := prof.EstimateAt(eb)
		meas = append(meas, psnr)
		refined = append(refined, est.PSNR)
		uniform = append(uniform, est.PSNRUniform)
	}
	out := &AblationResult{
		Name:    "error-distribution",
		WithOn:  quality.AccuracyOfEstimate(meas, refined),
		WithOff: quality.AccuracyOfEstimate(meas, uniform),
	}
	fmt.Fprintf(w, "error distribution: PSNR error rate %s (refined) vs %s (uniform)\n",
		pct(out.WithOn), pct(out.WithOff))
	return out, nil
}

// AblationSampleRate quantifies the sampling-rate trade-off: bit-rate
// estimation error at 0.1%, 1%, and 10% sampling.
func AblationSampleRate(cfg Config, w io.Writer) (map[float64]float64, error) {
	f, err := cfg.field("miranda/vx")
	if err != nil {
		return nil, err
	}
	ebs := ebsFor(f, relSweep)
	var meas []float64
	for _, eb := range ebs {
		res, err := compressAt(f, predictor.Lorenzo, eb, compressor.LosslessNone)
		if err != nil {
			return nil, err
		}
		meas = append(meas, res.Stats.BitRateHuffman)
	}
	out := map[float64]float64{}
	for _, rate := range []float64{0.001, 0.01, 0.1} {
		opts := cfg.modelOptions()
		opts.SampleRate = rate
		prof, err := core.NewProfile(f, predictor.Lorenzo, opts)
		if err != nil {
			return nil, err
		}
		var est []float64
		for _, eb := range ebs {
			est = append(est, prof.EstimateAt(eb).HuffmanBitRate)
		}
		out[rate] = quality.AccuracyOfEstimate(meas, est)
		fmt.Fprintf(w, "sample rate %.3f: bit-rate error rate %s (profile %v)\n",
			rate, pct(out[rate]), prof.BuildTime.Round(1000))
	}
	return out, nil
}

// AblationAnchors quantifies the low-bit-rate anchor handling: inverse-solve
// consistency with and against the pure Eq. 2 extrapolation.
func AblationAnchors(cfg Config, w io.Writer) (*AblationResult, error) {
	f, err := cfg.field("scale/PRES")
	if err != nil {
		return nil, err
	}
	prof, err := core.NewProfile(f, predictor.Lorenzo, cfg.modelOptions())
	if err != nil {
		return nil, err
	}
	base := prof.BaseErrorBound()
	baseB := prof.EstimateAt(base).HuffmanBitRate
	var withAnchors, pureEq2 []float64
	var targets []float64
	for _, target := range []float64{1.1, 1.5, 2, 3, 5} {
		targets = append(targets, target)
		eb, err := prof.ErrorBoundForBitRate(target)
		if err != nil {
			return nil, err
		}
		withAnchors = append(withAnchors, prof.EstimateAt(eb).HuffmanBitRate)
		eb2 := math.Exp2(baseB-target) * base
		pureEq2 = append(pureEq2, prof.EstimateAt(eb2).HuffmanBitRate)
	}
	out := &AblationResult{
		Name:    "low-rate-anchors",
		WithOn:  quality.AccuracyOfEstimate(targets, withAnchors),
		WithOff: quality.AccuracyOfEstimate(targets, pureEq2),
	}
	fmt.Fprintf(w, "inverse solve: achieved-vs-target error %s (anchored) vs %s (pure Eq. 2)\n",
		pct(out.WithOn), pct(out.WithOff))
	return out, nil
}

// AblationLossless compares the RLE-only lossless model against measured
// LZ77 and flate gains across bounds.
func AblationLossless(cfg Config, w io.Writer) (map[string]float64, error) {
	f, err := cfg.field("nyx/temperature")
	if err != nil {
		return nil, err
	}
	prof, err := core.NewProfile(f, predictor.Lorenzo, cfg.modelOptions())
	if err != nil {
		return nil, err
	}
	rels := []float64{1e-3, 1e-2, 5e-2, 1e-1}
	out := map[string]float64{}
	for _, kind := range []compressor.LosslessKind{compressor.LosslessRLE, compressor.LosslessLZ77, compressor.LosslessFlate} {
		name := kind.String()
		var meas, est []float64
		for _, eb := range ebsFor(f, rels) {
			rNone, err := compressAt(f, predictor.Lorenzo, eb, compressor.LosslessNone)
			if err != nil {
				return nil, err
			}
			rLL, err := compressAt(f, predictor.Lorenzo, eb, kind)
			if err != nil {
				return nil, err
			}
			meas = append(meas, losslessGain(rNone, rLL))
			est = append(est, prof.EstimateAt(eb).RLEGain)
		}
		out[name] = quality.AccuracyOfEstimate(meas, est)
		fmt.Fprintf(w, "lossless model vs %s: gain error rate %s\n", name, pct(out[name]))
	}
	return out, nil
}
