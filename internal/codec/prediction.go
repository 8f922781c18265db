package codec

import (
	"fmt"

	"rqm/internal/compressor"
	"rqm/internal/core"
	"rqm/internal/grid"
)

// Names of the prediction-based codecs. All three run the same
// SZ3-style prediction pipeline and differ only in the entropy stage. The
// stage choice is codec identity rather than an Options field: the wire ID
// pins how a chunk body must be decoded, so containers written by any
// variant route correctly by codec ID with no envelope or chunk-format
// change.
const (
	// PredictionName is the serial canonical-Huffman variant.
	PredictionName = "prediction"
	// PredictionILVName is the interleaved multi-stream Huffman variant
	// (same coded size as PredictionName, parallel bit-extraction on decode).
	PredictionILVName = "prediction-ilv"
	// PredictionTANSName is the tANS variant (fractional bits/symbol on
	// skewed histograms).
	PredictionTANSName = "prediction-tans"
)

// predictionCodec adapts the prediction pipeline with one entropy stage to
// the Codec interface. Its native payload is the "RQMC" container.
type predictionCodec struct {
	name    string
	id      ID
	entropy compressor.EntropyKind
	// modelEntropy is the size model matching the stage. Interleaving changes
	// decode throughput, not coded size — the streams share one codebook and
	// split the same codeword sequence — so it keeps the Eq. 1 Huffman model.
	modelEntropy core.EntropyModel
}

var (
	prediction     = predictionCodec{PredictionName, IDPrediction, compressor.EntropyHuffman, core.EntropyModelHuffman}
	predictionILV  = predictionCodec{PredictionILVName, IDPredictionILV, compressor.EntropyInterleaved, core.EntropyModelHuffman}
	predictionTANS = predictionCodec{PredictionTANSName, IDPredictionTANS, compressor.EntropyTANS, core.EntropyModelANS}
)

func (c predictionCodec) Name() string { return c.name }
func (c predictionCodec) ID() ID       { return c.id }

func (c predictionCodec) Compress(f *grid.Field, opts Options) ([]byte, error) {
	res, err := compressor.Compress(f, compressor.Options{
		Predictor:  opts.Predictor,
		Mode:       opts.Mode,
		ErrorBound: opts.ErrorBound,
		Lossless:   opts.Lossless,
		Entropy:    c.entropy,
	})
	if err != nil {
		return nil, err
	}
	return res.Bytes, nil
}

func (predictionCodec) Decompress(dst []float64, payload []byte) (*grid.Field, error) {
	f, err := compressor.DecompressInto(dst, payload)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	return f, nil
}

// Profile models the pipeline Compress would run under copts: this codec's
// entropy stage, and a lossless stage exactly when copts selects one. mopts
// has no say in those two.
func (c predictionCodec) Profile(f *grid.Field, copts Options, mopts core.Options) (*core.Profile, error) {
	mopts.Entropy = c.modelEntropy
	mopts.UseLossless = copts.Lossless != compressor.LosslessNone
	return core.NewProfile(f, copts.Predictor, mopts)
}
