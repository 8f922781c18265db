// Package rqm is a Go implementation of ratio-quality modeling for
// prediction-based error-bounded lossy compression, reproducing "Improving
// Prediction-Based Lossy Compression Dramatically via Ratio-Quality
// Modeling" (Jin et al., ICDE 2022).
//
// The package bundles three layers:
//
//   - A complete SZ3-style lossy compressor (Lorenzo / multilevel
//     interpolation / block regression predictors, linear-scaling
//     quantization, canonical Huffman coding, and optional lossless
//     backends) with guaranteed pointwise error bounds.
//   - The paper's analytical ratio-quality model: after one cheap sampling
//     pass, it estimates compression ratio and post-hoc quality (PSNR,
//     SSIM, FFT spectra) for any error bound, and solves the inverse
//     problems (error bound for a target bit-rate, ratio, or PSNR).
//   - The three use-cases built on the model: predictor selection, memory
//     compression with a target footprint, and in-situ per-partition
//     error-bound optimization.
//
// Every compressor backend sits behind one Codec interface in one closed
// codec set; compressed data travels in one self-describing container
// envelope, so Decompress routes any container to the right backend by
// inspection. The Engine
// is the configured entry point, with worker-pool batch paths for
// multi-field datasets.
//
// Quick start:
//
//	field, _ := rqm.GenerateField("nyx/temperature", 42, rqm.ScaleSmall)
//	eng, _ := rqm.NewEngine(rqm.WithMode(rqm.REL), rqm.WithErrorBound(1e-3))
//	profile, _ := eng.Profile(field)
//	est := profile.EstimateAt(1e-3 * profile.Range) // no compression run
//	fmt.Println(est.Ratio, est.PSNR)
//
//	res, _ := eng.Compress(field)
//	back, _ := rqm.Decompress(res.Bytes) // routed by the container envelope
//
// See DESIGN.md for the architecture, including the codec set and the
// container envelope byte layout.
package rqm

import (
	"rqm/internal/codec"
	"rqm/internal/compressor"
	"rqm/internal/core"
	"rqm/internal/datagen"
	"rqm/internal/dumpmodel"
	"rqm/internal/grid"
	"rqm/internal/predictor"
	"rqm/internal/quality"
	"rqm/internal/tuner"
)

// Data model.
type (
	// Field is an N-dimensional scalar field (1–4D, row-major float64 with
	// original-precision metadata).
	Field = grid.Field
	// Precision records the original storage width (Float32 or Float64).
	Precision = grid.Precision
	// Scale selects synthesized dataset sizes.
	Scale = datagen.Scale
	// Dataset groups the fields of one synthesized benchmark dataset.
	Dataset = datagen.Dataset
)

// Precision and scale constants.
const (
	Float32 = grid.Float32
	Float64 = grid.Float64

	ScaleTiny   = datagen.Tiny
	ScaleSmall  = datagen.Small
	ScaleMedium = datagen.Medium
)

// Compressor configuration.
type (
	// PredictorKind selects the prediction scheme.
	PredictorKind = predictor.Kind
	// CompressOptions configures a compression run.
	CompressOptions = compressor.Options
	// ErrorMode interprets the error bound (ABS, REL, PWREL).
	ErrorMode = compressor.ErrorMode
	// LosslessKind selects the optional stage after Huffman coding.
	LosslessKind = compressor.LosslessKind
)

// Predictor kinds.
const (
	Lorenzo            = predictor.Lorenzo
	Lorenzo2           = predictor.Lorenzo2
	Interpolation      = predictor.Interpolation
	InterpolationCubic = predictor.InterpolationCubic
	Regression         = predictor.Regression
)

// Error-bound modes.
const (
	ABS   = compressor.ABS
	REL   = compressor.REL
	PWREL = compressor.PWREL
)

// Lossless backends.
const (
	LosslessNone  = compressor.LosslessNone
	LosslessRLE   = compressor.LosslessRLE
	LosslessLZ77  = compressor.LosslessLZ77
	LosslessFlate = compressor.LosslessFlate
)

// Ratio-quality model.
type (
	// ModelOptions tunes the analytical model (zero value = paper defaults).
	ModelOptions = core.Options
	// Profile is the one-time sampling product for a (field, predictor)
	// pair; all estimates derive from it.
	Profile = core.Profile
	// Estimate is the model's output at one error bound.
	Estimate = core.Estimate
)

// Use-cases.
type (
	// PredictorChoice is one candidate's modeled performance.
	PredictorChoice = tuner.Choice
	// MemoryPlan is the outcome of budgeted compression.
	MemoryPlan = tuner.MemoryPlan
	// PartitionAllocation is a per-partition error-bound assignment.
	PartitionAllocation = tuner.PartitionAllocation
	// RatePoint is one point of a rate-distortion sweep.
	RatePoint = tuner.RatePoint
	// ClusterConfig models the parallel dump machine.
	ClusterConfig = dumpmodel.Config
	// DumpReport breaks a snapshot dump into optimization/compression/I-O.
	DumpReport = dumpmodel.DumpReport
)

// NewField allocates a zero-filled field.
func NewField(name string, prec Precision, dims ...int) (*Field, error) {
	return grid.New(name, prec, dims...)
}

// FieldFromData wraps an existing buffer as a field.
func FieldFromData(name string, prec Precision, data []float64, dims ...int) (*Field, error) {
	return grid.FromData(name, prec, data, dims...)
}

// DatasetNames lists the available SDRBench stand-ins (Table I).
func DatasetNames() []string { return datagen.Names() }

// GenerateDataset synthesizes a named dataset stand-in.
func GenerateDataset(name string, seed uint64, sc Scale) (*Dataset, error) {
	return datagen.Generate(name, seed, sc)
}

// GenerateField synthesizes a single field ("dataset/field" or "dataset").
func GenerateField(path string, seed uint64, sc Scale) (*Field, error) {
	return datagen.GenerateField(path, seed, sc)
}

// Decompress reconstructs a field from any compressed container, routing to
// the producing codec by inspection: one walker reads both grammars, a
// chunked stream (NewWriter output) chunk by chunk and an envelope as a
// stream of one chunk, each dispatched on its codec ID. A bare native
// payload outside an envelope (pre-envelope "RQMC" / "RQZF") is not a
// container and fails with ErrBadMagic. Parse failures wrap the typed errors
// ErrTruncated, ErrBadMagic, ErrUnsupportedVersion, ErrUnknownCodec,
// ErrCorrupt, and ErrChecksum; a chunked container whose stored copies of a
// chunk's geometry or bound disagree (record head, trailer entry, footer) is
// ErrCorrupt.
func Decompress(data []byte) (*Field, error) {
	return codec.Decompress(data)
}

// VerifyErrorBound checks that recon satisfies the bound against orig.
func VerifyErrorBound(orig, recon *Field, mode ErrorMode, eb float64) error {
	return compressor.VerifyErrorBound(orig, recon, mode, eb)
}

// ParseErrorMode resolves an error-mode name ("abs", "rel", "pwrel").
func ParseErrorMode(s string) (ErrorMode, error) {
	return compressor.ParseErrorMode(s)
}

// ParseLosslessKind resolves a lossless-backend name
// ("none", "rle", "lz77", "flate").
func ParseLosslessKind(s string) (LosslessKind, error) {
	return compressor.ParseLosslessKind(s)
}

// ParsePredictorKind resolves a prediction-scheme name ("lorenzo",
// "lorenzo2", "interpolation", "interpolation-cubic", "regression").
func ParsePredictorKind(s string) (PredictorKind, error) {
	return predictor.ParseKind(s)
}

// PredictorKinds lists all implemented prediction schemes.
func PredictorKinds() []PredictorKind { return predictor.Kinds() }

// NewProfile samples a field with a predictor and returns the model profile.
func NewProfile(f *Field, kind PredictorKind, opts ModelOptions) (*Profile, error) {
	return core.NewProfile(f, kind, opts)
}

// EstimateSpectrumRatio predicts per-shell power-spectrum distortion from a
// compression-error variance (the FFT post-hoc analysis model).
func EstimateSpectrumRatio(origSpectrum []float64, n int, errVar float64) []float64 {
	return core.EstimateSpectrumRatio(origSpectrum, n, errVar)
}

// SelectPredictor profiles the candidates and ranks them by the model
// (use-case A). The best choice is first.
func SelectPredictor(f *Field, kinds []PredictorKind, absEB float64, opts ModelOptions) ([]PredictorChoice, error) {
	return tuner.SelectPredictor(f, kinds, absEB, opts)
}

// OptimizePartitionsForPSNR assigns per-partition error bounds meeting an
// aggregate PSNR target with minimal bits (use-case C).
func OptimizePartitionsForPSNR(profiles []*Profile, targetPSNR float64) ([]PartitionAllocation, error) {
	return tuner.OptimizePartitionsForPSNR(profiles, targetPSNR)
}

// RateDistortion sweeps the model across relative error bounds.
func RateDistortion(p *Profile, relLo, relHi float64, points int) []RatePoint {
	return tuner.RateDistortion(p, relLo, relHi, points)
}

// PSNR measures peak signal-to-noise ratio between two fields (dB).
func PSNR(a, b *Field) (float64, error) { return quality.PSNR(a, b) }

// GlobalSSIM measures the whole-field structural similarity index.
func GlobalSSIM(a, b *Field) (float64, error) { return quality.GlobalSSIM(a, b) }

// WindowedSSIM measures mean SSIM over non-overlapping windows.
func WindowedSSIM(a, b *Field, edge int) (float64, error) { return quality.WindowedSSIM(a, b, edge) }

// MSE measures the mean squared error between two fields.
func MSE(a, b *Field) (float64, error) { return quality.MSE(a, b) }

// DefaultCluster returns the simulated 128-rank machine used by the
// data-management experiments.
func DefaultCluster() ClusterConfig { return dumpmodel.DefaultBebop() }
