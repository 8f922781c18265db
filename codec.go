package rqm

import (
	"rqm/internal/codec"
	"rqm/internal/tuner"
)

// Codec abstraction: every compressor backend implements one interface, the
// backends form one closed set fixed at build time, and every backend's
// output travels in one self-describing container envelope.
type (
	// Codec is one error-bounded compression backend
	// (Compress / Decompress / Profile / Name / ID).
	Codec = codec.Codec
	// CodecID is a codec's stable wire identifier inside the envelope.
	CodecID = codec.ID
	// CodecOptions is the codec-agnostic compression configuration; fields a
	// backend does not understand are ignored.
	CodecOptions = codec.Options
	// CodecResult is a sealed envelope container plus codec-agnostic
	// statistics.
	CodecResult = codec.Result
	// CodecStats describes one codec run with sizes measured on the sealed
	// container, comparable across backends.
	CodecStats = codec.Stats
	// ContainerInfo describes a container (codec, field shape, payload size)
	// without decoding it.
	ContainerInfo = codec.Info
	// CodecChoice is one codec's modeled performance at a quality target.
	CodecChoice = tuner.CodecChoice
)

// Built-in codec IDs and names.
const (
	CodecPrediction = codec.IDPrediction
	CodecTransform  = codec.IDTransform
	// CodecPredictionILV / CodecPredictionTANS are the prediction pipeline
	// with the interleaved multi-stream Huffman and tANS entropy stages.
	CodecPredictionILV  = codec.IDPredictionILV
	CodecPredictionTANS = codec.IDPredictionTANS

	CodecPredictionName     = codec.PredictionName
	CodecTransformName      = codec.TransformName
	CodecPredictionILVName  = codec.PredictionILVName
	CodecPredictionTANSName = codec.PredictionTANSName
)

// Typed container errors; match with errors.Is. Every Decompress/Inspect
// parse failure wraps exactly one of these.
var (
	// ErrTruncated marks a container shorter than its header or payload
	// declares.
	ErrTruncated = codec.ErrTruncated
	// ErrBadMagic marks data that is not any known container format.
	ErrBadMagic = codec.ErrBadMagic
	// ErrUnsupportedVersion marks an envelope version this build cannot read.
	ErrUnsupportedVersion = codec.ErrUnsupportedVersion
	// ErrUnknownCodec marks an envelope whose codec ID names no codec.
	ErrUnknownCodec = codec.ErrUnknownCodec
	// ErrCorrupt marks a structurally invalid container header.
	ErrCorrupt = codec.ErrCorrupt
)

// Codecs returns the codecs sorted by wire ID.
func Codecs() []Codec { return codec.All() }

// CodecNames returns the codec names sorted by wire ID.
func CodecNames() []string { return codec.Names() }

// CodecByName looks up a codec by name ("prediction", "transform", ...).
func CodecByName(name string) (Codec, error) { return codec.ByName(name) }

// CodecByID looks up a codec by wire ID.
func CodecByID(id CodecID) (Codec, error) { return codec.ByID(id) }

// CompressWith runs one codec on a field and seals the output in the
// envelope; Decompress reads it back regardless of the backend.
func CompressWith(c Codec, f *Field, opts CodecOptions) (*CodecResult, error) {
	return codec.Compress(c, f, opts)
}

// Inspect describes any container — envelope or chunked stream — without
// decoding its payload (a chunked stream is walked record head by record head
// and reconciled with its trailer and footer, payloads skipped).
func Inspect(data []byte) (*ContainerInfo, error) { return codec.Inspect(data) }

// SelectCodec ranks every codec at a PSNR target: one sampling
// pass per backend, then the model solves each backend's error bound for the
// target and orders candidates by modeled bit-rate (best ratio first). The
// winner's Profile and ErrorBound are ready to compress with.
func SelectCodec(f *Field, targetPSNR float64, copts CodecOptions, mopts ModelOptions) ([]CodecChoice, error) {
	return tuner.SelectCodec(f, codec.All(), targetPSNR, copts, mopts)
}
