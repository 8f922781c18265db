package experiments

import (
	"fmt"
	"io"

	"rqm/internal/compressor"
	"rqm/internal/core"
	"rqm/internal/predictor"
	"rqm/internal/quality"
	"rqm/internal/transform"
)

// ExtensionCodecPoint is one (codec, bound) outcome for the codec-selection
// extension.
type ExtensionCodecPoint struct {
	Codec    string
	RelEB    float64
	EstBits  float64
	MeasBits float64
	MeasPSNR float64
}

// ExtensionCodecResult compares the prediction-based compressor with the
// transform-based codec (the ZFP-class extension named in the paper's
// future work), both measured and through the extended model.
type ExtensionCodecResult struct {
	Points []ExtensionCodecPoint
	// ModelPicksMatch counts bounds where the model's cheaper codec agrees
	// with the measured one.
	ModelPicksMatch int
	// Bounds is the number of bounds compared.
	Bounds int
}

// ExtensionCodecSelection extends use-case A across codec families: profile
// both the Lorenzo pipeline and the transform codec on a field, estimate
// their bit-rates per bound, and verify the model picks the codec the
// measurements favor.
func ExtensionCodecSelection(cfg Config, w io.Writer) (*ExtensionCodecResult, error) {
	f, err := cfg.field("qmcpack/einspline")
	if err != nil {
		return nil, err
	}
	lorProf, err := core.NewProfile(f, predictor.Lorenzo, cfg.modelOptions())
	if err != nil {
		return nil, err
	}
	trProf, err := transform.NewProfile(f, cfg.SampleRate, cfg.Seed, cfg.modelOptions())
	if err != nil {
		return nil, err
	}
	out := &ExtensionCodecResult{}
	tw := newTable(w)
	row(tw, "codec", "relEB", "est bits", "meas bits", "meas PSNR")
	rels := []float64{1e-4, 1e-3, 1e-2}
	lo, hi := f.ValueRange()
	rng := hi - lo
	for _, rel := range rels {
		eb := rel * rng
		// Prediction pipeline (Huffman payload bits as the common basis).
		szRes, szPSNR, err := trialPSNR(f, predictor.Lorenzo, eb, compressor.LosslessNone)
		if err != nil {
			return nil, err
		}
		szPt := ExtensionCodecPoint{
			Codec: "prediction", RelEB: rel,
			EstBits:  lorProf.EstimateAt(eb).HuffmanBitRate,
			MeasBits: szRes.Stats.BitRateHuffman,
			MeasPSNR: szPSNR,
		}
		// Transform codec.
		trRes, err := transform.Compress(f, transform.Options{ErrorBound: eb})
		if err != nil {
			return nil, err
		}
		trDec, err := transform.Decompress(trRes.Bytes)
		if err != nil {
			return nil, err
		}
		trPSNR, err := quality.PSNR(f, trDec)
		if err != nil {
			return nil, err
		}
		trPt := ExtensionCodecPoint{
			Codec: "transform", RelEB: rel,
			EstBits:  trProf.EstimateAt(eb).HuffmanBitRate,
			MeasBits: float64(trRes.Stats.PayloadBits) / float64(f.Len()),
			MeasPSNR: trPSNR,
		}
		out.Points = append(out.Points, szPt, trPt)
		out.Bounds++
		if (szPt.EstBits < trPt.EstBits) == (szPt.MeasBits < trPt.MeasBits) {
			out.ModelPicksMatch++
		}
		for _, p := range []ExtensionCodecPoint{szPt, trPt} {
			row(tw, p.Codec, fmt.Sprintf("%.0e", p.RelEB),
				fmt.Sprintf("%.3f", p.EstBits), fmt.Sprintf("%.3f", p.MeasBits),
				fmt.Sprintf("%.2f", p.MeasPSNR))
		}
	}
	if err := tw.Flush(); err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "model's codec pick agrees with measurement at %d/%d bounds\n",
		out.ModelPicksMatch, out.Bounds)
	return out, nil
}
