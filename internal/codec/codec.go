package codec

import (
	"errors"
	"fmt"
	"time"

	"rqm/internal/compressor"
	"rqm/internal/core"
	"rqm/internal/grid"
	"rqm/internal/predictor"
)

// ID identifies a codec inside the container envelope. IDs are stable wire
// values: never reuse or renumber a published ID.
type ID uint8

const (
	// IDPrediction is the SZ3-style prediction-based codec.
	IDPrediction ID = 1
	// IDTransform is the ZFP-style transform-based codec.
	IDTransform ID = 2
	// IDPredictionILV is the prediction pipeline with the interleaved
	// multi-stream Huffman entropy stage.
	IDPredictionILV ID = 3
	// IDPredictionTANS is the prediction pipeline with the tANS entropy
	// stage.
	IDPredictionTANS ID = 4
)

// Options is the codec-agnostic compression configuration. Fields a codec
// does not understand are ignored (e.g. Predictor for the transform codec);
// fields a codec cannot honor produce an error (e.g. PWREL mode for the
// transform codec).
type Options struct {
	// Mode interprets ErrorBound (ABS, REL, PWREL).
	Mode compressor.ErrorMode
	// ErrorBound is the user bound in Mode semantics; must be positive.
	ErrorBound float64
	// Predictor selects the prediction scheme (prediction codec only).
	Predictor predictor.Kind
	// Lossless selects the optional stage after entropy coding
	// (prediction codec only).
	Lossless compressor.LosslessKind
}

// Stats is the codec-agnostic description of one compression run. Sizes are
// measured on the sealed envelope container, so they are comparable across
// codecs and include all framing overhead.
type Stats struct {
	// Codec names the backend that produced the container.
	Codec string
	// N is the number of values.
	N int
	// OriginalBytes is the field size at its original precision.
	OriginalBytes int64
	// CompressedBytes is the sealed container size.
	CompressedBytes int64
	// BitRate is compressed bits per value.
	BitRate float64
	// Ratio is OriginalBytes over CompressedBytes.
	Ratio float64
	// EncodeTime is the wall time of the encode.
	EncodeTime time.Duration
}

// Result is one sealed compression output.
type Result struct {
	// Bytes is the self-describing envelope container (decodable by
	// Decompress regardless of which codec produced it).
	Bytes []byte
	// Stats describes the run.
	Stats Stats
}

// Codec is one error-bounded compression backend. Compress and Decompress
// deal in the codec's native payload; the package-level Compress/Decompress
// functions seal payloads into (and route them out of) the shared envelope.
type Codec interface {
	// Name is the stable human-readable identifier used for CLI selection.
	Name() string
	// ID is the stable wire identifier used in the container envelope.
	ID() ID
	// Compress encodes f into the codec's native payload. Implementations
	// must not retain or alias f.Data after returning: callers (the stream
	// writer's chunk pipeline in particular) recycle the field's buffer as
	// soon as Compress returns.
	Compress(f *grid.Field, opts Options) (payload []byte, err error)
	// Decompress reconstructs a field from a native payload. When cap(dst)
	// holds the field, its values are decoded into dst[:n], which the field's
	// Data then aliases; otherwise (dst nil, say) they get a fresh slice.
	Decompress(dst []float64, payload []byte) (*grid.Field, error)
	// Profile builds a ratio-quality profile for f: the one-time sampling
	// product all model estimates and inverse solves derive from. The
	// modeled pipeline — predictor, entropy stage, whether a lossless stage
	// runs — is what Compress would run under copts, so an implementation
	// fixes mopts' Entropy and UseLossless itself; from mopts it takes the
	// sampling rate, the seed and DisableCorrection.
	Profile(f *grid.Field, copts Options, mopts core.Options) (*core.Profile, error)
}

// all is the closed codec set, in wire-ID order. It is never written: a
// codec joins it only with a new wire ID, in a new release.
var all = []Codec{prediction, transformCodec{}, predictionILV, predictionTANS}

// ByID looks up a codec by wire ID.
func ByID(id ID) (Codec, error) {
	for _, c := range all {
		if c.ID() == id {
			return c, nil
		}
	}
	return nil, fmt.Errorf("%w: id %d", ErrUnknownCodec, id)
}

// ByName looks up a codec by name.
func ByName(name string) (Codec, error) {
	for _, c := range all {
		if c.Name() == name {
			return c, nil
		}
	}
	return nil, fmt.Errorf("%w: name %q", ErrUnknownCodec, name)
}

// All returns the codecs sorted by ID.
func All() []Codec { return append([]Codec(nil), all...) }

// Names returns the codec names sorted by ID.
func Names() []string {
	out := make([]string, len(all))
	for i, c := range all {
		out[i] = c.Name()
	}
	return out
}

// Compress runs c on f and seals the payload into the envelope container.
func Compress(c Codec, f *grid.Field, opts Options) (*Result, error) {
	if f == nil || f.Len() == 0 {
		return nil, errors.New("codec: empty field")
	}
	start := time.Now()
	payload, err := c.Compress(f, opts)
	if err != nil {
		return nil, err
	}
	sealed, err := Seal(c.ID(), f, payload)
	if err != nil {
		return nil, err
	}
	st := Stats{
		Codec:           c.Name(),
		N:               f.Len(),
		OriginalBytes:   f.OriginalBytes(),
		CompressedBytes: int64(len(sealed)),
		BitRate:         float64(len(sealed)) * 8 / float64(f.Len()),
		Ratio:           float64(f.OriginalBytes()) / float64(len(sealed)),
		EncodeTime:      time.Since(start),
	}
	return &Result{Bytes: sealed, Stats: st}, nil
}
