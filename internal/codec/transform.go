package codec

import (
	"fmt"

	"rqm/internal/compressor"
	"rqm/internal/core"
	"rqm/internal/grid"
	"rqm/internal/transform"
)

// TransformName is the name of the transform-based codec.
const TransformName = "transform"

// transformCodec adapts the ZFP-style transform pipeline to the Codec
// interface. Its native payload is the "RQZF" container. The codec itself
// only understands absolute bounds, so the adapter resolves REL against the
// value range and rejects PWREL.
type transformCodec struct{}

func (transformCodec) Name() string { return TransformName }
func (transformCodec) ID() ID       { return IDTransform }

func (transformCodec) Compress(f *grid.Field, opts Options) ([]byte, error) {
	abs, err := transformAbsBound(f, opts)
	if err != nil {
		return nil, err
	}
	res, err := transform.Compress(f, transform.Options{ErrorBound: abs})
	if err != nil {
		return nil, err
	}
	return res.Bytes, nil
}

func (transformCodec) Decompress(dst []float64, payload []byte) (*grid.Field, error) {
	f, err := transform.DecompressInto(dst, payload)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	return f, nil
}

// Profile models the transform pipeline, which codes with Huffman and never
// runs a lossless stage — whatever mopts says.
func (transformCodec) Profile(f *grid.Field, copts Options, mopts core.Options) (*core.Profile, error) {
	mopts.Entropy = core.EntropyModelHuffman
	mopts.UseLossless = false
	return transform.NewProfile(f, mopts.SampleRate, mopts.Seed, mopts)
}

// transformAbsBound maps the user's (mode, bound) onto the absolute bound
// the transform codec needs.
func transformAbsBound(f *grid.Field, opts Options) (float64, error) {
	switch opts.Mode {
	case compressor.ABS:
		return opts.ErrorBound, nil
	case compressor.REL:
		lo, hi := f.ValueRange()
		abs := opts.ErrorBound * (hi - lo)
		if abs == 0 {
			abs = opts.ErrorBound // constant field: any positive bound works
		}
		return abs, nil
	}
	return 0, fmt.Errorf("codec: transform codec supports abs|rel error modes, got %s", opts.Mode)
}
