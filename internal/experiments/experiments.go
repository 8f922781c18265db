// Package experiments regenerates every table and figure of the paper's
// evaluation (§V) on the synthesized dataset stand-ins. Each experiment is a
// function that runs the workload, prints a paper-style text table to a
// writer, and returns a structured result the benchmarks assert on. See
// DESIGN.md §15 for the experiment index and dataset substitution notes.
package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"rqm/internal/compressor"
	"rqm/internal/core"
	"rqm/internal/datagen"
	"rqm/internal/grid"
	"rqm/internal/predictor"
	"rqm/internal/quality"
)

// Config controls experiment scale and determinism.
type Config struct {
	// Scale selects dataset sizes (datagen.Tiny for tests/benches,
	// datagen.Small for the full runs).
	Scale datagen.Scale
	// Seed drives all data generation and sampling.
	Seed uint64
	// SampleRate is the model's sampling rate (paper default 0.01; tiny
	// fields need more samples for stable statistics).
	SampleRate float64
}

// Default returns the standard experiment configuration.
func Default() Config {
	return Config{Scale: datagen.Small, Seed: 42, SampleRate: 0.01}
}

// Quick returns a fast configuration for tests and benchmarks.
func Quick() Config {
	return Config{Scale: datagen.Tiny, Seed: 42, SampleRate: 0.2}
}

// modelOptions builds the core options for this config.
func (c Config) modelOptions() core.Options {
	return core.Options{SampleRate: c.SampleRate, Seed: c.Seed, UseLossless: true}
}

// field generates one dataset field stand-in.
func (c Config) field(path string) (*grid.Field, error) {
	return datagen.GenerateField(path, c.Seed, c.Scale)
}

// relSweep is the canonical value-range-relative error-bound sweep for the
// ratio-accuracy experiments (the paper's Table II regime); relSweepQuality
// shifts one decade looser for the quality metrics, where SSIM only departs
// measurably from 1 at high bounds (the paper's Fig. 6/7 regime).
var (
	relSweep        = []float64{1e-5, 1e-4, 1e-3, 1e-2}
	relSweepQuality = []float64{1e-4, 1e-3, 1e-2, 5e-2}
)

// ebsFor converts the relative sweep into absolute bounds for a field.
func ebsFor(f *grid.Field, rels []float64) []float64 {
	lo, hi := f.ValueRange()
	rng := hi - lo
	out := make([]float64, len(rels))
	for i, r := range rels {
		out[i] = r * rng
	}
	return out
}

// compressAt runs the pipeline at one bound and returns the result.
func compressAt(f *grid.Field, kind predictor.Kind, eb float64, lossless compressor.LosslessKind) (*compressor.Result, error) {
	return compressor.Compress(f, compressor.Options{
		Predictor: kind, Mode: compressor.ABS, ErrorBound: eb, Lossless: lossless,
	})
}

// trial is the evaluation's one trial step: compress f at eb and decode it,
// returning the result and the reconstruction.
func trial(f *grid.Field, kind predictor.Kind, eb float64, lossless compressor.LosslessKind) (*compressor.Result, *grid.Field, error) {
	res, err := compressAt(f, kind, eb, lossless)
	if err != nil {
		return nil, nil, err
	}
	dec, err := compressor.Decompress(res.Bytes)
	if err != nil {
		return nil, nil, err
	}
	return res, dec, nil
}

// trialPSNR is a trial measured by the reconstruction's PSNR.
func trialPSNR(f *grid.Field, kind predictor.Kind, eb float64, lossless compressor.LosslessKind) (*compressor.Result, float64, error) {
	res, dec, err := trial(f, kind, eb, lossless)
	if err != nil {
		return nil, 0, err
	}
	psnr, err := quality.PSNR(f, dec)
	return res, psnr, err
}

// losslessGain is the measured gain of a lossless stage: the payload bytes
// without it over the payload bytes with it, floored at 1.
func losslessGain(without, with *compressor.Result) float64 {
	return max(float64(without.Stats.PayloadBytesFinal)/float64(with.Stats.PayloadBytesFinal), 1)
}

// newTable starts an aligned text table.
func newTable(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
}

// row writes one tab-separated row.
func row(tw *tabwriter.Writer, cells ...interface{}) {
	for i, c := range cells {
		if i > 0 {
			fmt.Fprint(tw, "\t")
		}
		fmt.Fprint(tw, c)
	}
	fmt.Fprintln(tw)
}

// tableIIFields lists the 17 evaluated fields in Table-II order.
var tableIIFields = []struct {
	Dataset string
	Field   string
	Kind    predictor.Kind
	HasSSIM bool // 1D streams report "-" for SSIM, as in the paper
}{
	{"rtm", "rtm/snapshot_1", predictor.Interpolation, true},
	{"rtm", "rtm/snapshot_2", predictor.Interpolation, true},
	{"rtm", "rtm/snapshot_3", predictor.Interpolation, true},
	{"cesm", "cesm/TS", predictor.Lorenzo, true},
	{"cesm", "cesm/TROP_Z", predictor.Lorenzo, true},
	{"hurricane", "hurricane/U", predictor.Lorenzo, true},
	{"hurricane", "hurricane/TC", predictor.Lorenzo, true},
	{"nyx", "nyx/dark_matter_density", predictor.Lorenzo, true},
	{"nyx", "nyx/temperature", predictor.Lorenzo, true},
	{"nyx", "nyx/velocity_z", predictor.Lorenzo, true},
	{"hacc", "hacc/xx", predictor.Lorenzo2, false},
	{"hacc", "hacc/vx", predictor.Lorenzo2, false},
	{"brown", "brown/pressure", predictor.Lorenzo2, false},
	{"miranda", "miranda/vx", predictor.Interpolation, true},
	{"qmcpack", "qmcpack/einspline", predictor.Interpolation, true},
	{"scale", "scale/PRES", predictor.Lorenzo, true},
	{"exafel", "exafel/raw", predictor.Lorenzo, false},
}
