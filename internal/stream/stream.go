// Package stream is the chunked, concurrent compression pipeline: a Writer
// that splits a value stream into chunks, compresses them on a bounded
// worker pool, and emits a chunked (v2) container in order, and a Reader
// that decompresses such containers with the same overlap. Memory stays
// O(workers × chunk size) on both sides regardless of stream length, and
// throughput scales with cores because chunks compress independently.
//
// The adaptive layer is the paper's headline use case wired into the hot
// path: with an AdaptiveBound policy, each worker runs the ratio-quality
// model's cheap sampling estimate on its chunk before compressing it and
// solves for the per-chunk error bound that meets a global compression-ratio
// or PSNR target (Jin et al., ICDE 2022, §V-C). Every chunk — a fixed slab
// or a partitioner's leaf — is solved by one function, partition's
// Env.SolveRegion; partitioners plan geometry only.
package stream

import (
	"errors"
	"fmt"
	"math"

	"rqm/internal/codec"
	"rqm/internal/compressor"
	"rqm/internal/core"
	"rqm/internal/grid"
	"rqm/internal/partition"
)

// DefaultChunkValues is the default chunk size (values per chunk): 256 Ki
// values, i.e. 2 MiB of float64 input per in-flight chunk.
const DefaultChunkValues = 1 << 18

// AdaptiveBound is the per-region error-bound policy, now owned by the
// partition layer (it solves bounds for whatever regions the partitioner
// plans — fixed slabs by default). The alias keeps the historical stream API
// intact: stream.AdaptiveBound and partition.AdaptiveBound are one type.
type AdaptiveBound = partition.AdaptiveBound

// ErrEmptyStream marks a structurally valid container holding zero values.
var ErrEmptyStream = errors.New("stream: empty stream")

// ErrClosed marks use of a Writer or a Reader after Close.
var ErrClosed = errors.New("stream: closed")

// ErrNeedValueRange marks a REL-mode Writer built without a stream-global
// value range. A relative bound is defined against the *whole field's* range;
// resolving it against each chunk's local range would silently give every
// chunk a different absolute guarantee than whole-buffer REL compression.
// Callers that know the field resolve it up front (Engine.NewFieldStreamWriter);
// raw byte-stream writers declare the range with WithValueRange.
var ErrNeedValueRange = errors.New(
	"stream: REL error bound needs a stream-global value range: declare it with WithValueRange or use ABS mode")

// config carries the resolved Writer configuration.
type config struct {
	codec       codec.Codec
	copts       codec.Options
	mopts       core.Options
	adaptive    *AdaptiveBound
	partitioner partition.Partitioner
	chunkValues int
	workers     int
	name        string
	prec        grid.Precision
	dims        []int

	rangeSet         bool
	rangeLo, rangeHi float64
}

// env assembles the partition-layer context from the resolved configuration.
func (cfg *config) env() partition.Env {
	return partition.Env{
		Codec:       cfg.codec,
		Copts:       cfg.copts,
		Mopts:       cfg.mopts,
		Policy:      cfg.adaptive,
		Prec:        cfg.prec,
		Dims:        cfg.dims,
		ChunkValues: cfg.chunkValues,
	}
}

// Option configures a Writer.
type Option func(*config) error

// WithCodecName selects the backend codec for every chunk by name.
func WithCodecName(name string) Option {
	return func(cfg *config) error {
		c, err := codec.ByName(name)
		if err != nil {
			return err
		}
		cfg.codec = c
		return nil
	}
}

// WithCompression sets the codec options applied to every chunk (mode,
// bound, predictor, lossless stage). Under an AdaptiveBound policy
// the mode and bound are overridden per chunk; the rest still applies.
func WithCompression(o codec.Options) Option {
	return func(cfg *config) error {
		if o.ErrorBound < 0 {
			return fmt.Errorf("stream: negative error bound %v", o.ErrorBound)
		}
		cfg.copts = o
		return nil
	}
}

// WithModel tunes the ratio-quality model the adaptive layer runs per chunk.
func WithModel(o core.Options) Option {
	return func(cfg *config) error {
		cfg.mopts = o
		return nil
	}
}

// WithAdaptive installs a per-chunk error-bound policy: before compressing
// each chunk, the writer profiles it with the ratio-quality model and solves
// for the bound meeting the policy's target.
func WithAdaptive(a AdaptiveBound) Option {
	return func(cfg *config) error {
		if err := a.Validate(); err != nil {
			return err
		}
		cfg.adaptive = &a
		return nil
	}
}

// WithPartitioner installs the chunk-planning strategy. The default,
// partition.FixedSlab, reproduces the historical fixed-size slabs byte for
// byte; partition.VarianceQuadtree buffers the stream and splits it where
// variance is non-uniform, and the workers solve the AdaptiveBound policy per
// region (it requires one via WithAdaptive). Partitioners that buffer the whole
// stream (WindowValues 0) trade the pipeline's O(workers × chunk) memory
// bound for O(stream).
func WithPartitioner(p partition.Partitioner) Option {
	return func(cfg *config) error {
		if p == nil {
			return errors.New("stream: WithPartitioner(nil)")
		}
		cfg.partitioner = p
		return nil
	}
}

// WithChunkValues sets the chunk size in values (default DefaultChunkValues).
func WithChunkValues(n int) Option {
	return func(cfg *config) error {
		if n < 1 {
			return fmt.Errorf("stream: chunk size must be at least 1 value, got %d", n)
		}
		cfg.chunkValues = n
		return nil
	}
}

// WithWorkers sets the number of concurrent chunk compressors (default
// GOMAXPROCS).
func WithWorkers(n int) Option {
	return func(cfg *config) error {
		if n < 1 {
			return fmt.Errorf("stream: workers must be at least 1, got %d", n)
		}
		cfg.workers = n
		return nil
	}
}

// WithShape records the logical field shape and precision in the stream
// header, so readers reassemble the original N-dimensional field. Without
// it the stream decodes as 1-D float64. A declared shape is a contract:
// Close fails if the written value count does not match it.
func WithShape(prec grid.Precision, dims ...int) Option {
	return func(cfg *config) error {
		if prec != grid.Float32 && prec != grid.Float64 {
			return fmt.Errorf("stream: unsupported precision %d", prec)
		}
		if len(dims) > 0 { // rank 0: shape unknown
			if _, err := grid.ShapeLen(dims); err != nil {
				return fmt.Errorf("stream: %w", err)
			}
		}
		cfg.prec = prec
		cfg.dims = append([]int(nil), dims...)
		return nil
	}
}

// WithName records the field name in the stream header.
func WithName(name string) Option {
	return func(cfg *config) error {
		cfg.name = name
		return nil
	}
}

// WithValueRange declares the stream-global value range [lo, hi] that a REL
// error bound resolves against — once, for the whole stream — so streamed and
// whole-buffer REL compression of the same field enforce the same absolute
// bound. Required for REL mode (see ErrNeedValueRange), where it must be
// finite; ignored by ABS and PWREL, which need no range.
func WithValueRange(lo, hi float64) Option {
	return func(cfg *config) error {
		if hi < lo {
			return fmt.Errorf("stream: inverted value range [%v, %v]", lo, hi)
		}
		cfg.rangeSet = true
		cfg.rangeLo, cfg.rangeHi = lo, hi
		return nil
	}
}

// newConfig resolves options against defaults.
func newConfig(opts []Option) (*config, error) {
	cfg := &config{
		chunkValues: DefaultChunkValues,
		prec:        grid.Float64,
	}
	var err error
	if cfg.codec, err = codec.ByID(codec.IDPrediction); err != nil {
		return nil, err
	}
	cfg.copts = codec.Options{Mode: compressor.REL, ErrorBound: 1e-3} // the Engine default
	for _, opt := range opts {
		if err := opt(cfg); err != nil {
			return nil, err
		}
	}
	// Resolve a REL bound once against the stream-global range. Chunk-local
	// resolution would change the bound's meaning per chunk (and degenerate
	// to the raw relative bound on constant chunks). An AdaptiveBound policy
	// replaces mode and bound per chunk, so it needs no range.
	if cfg.copts.Mode == compressor.REL && cfg.adaptive == nil {
		if !cfg.rangeSet {
			return nil, ErrNeedValueRange
		}
		if lo, hi := cfg.rangeLo, cfg.rangeHi; math.IsNaN(lo) || math.IsNaN(hi) || math.IsInf(lo, 0) || math.IsInf(hi, 0) {
			return nil, fmt.Errorf("%w (declared [%v, %v] is not finite)", ErrNeedValueRange, lo, hi)
		}
		abs := cfg.copts.ErrorBound * (cfg.rangeHi - cfg.rangeLo)
		if abs <= 0 {
			// Declared-constant range: match whole-buffer REL semantics,
			// where any positive bound works on a constant field.
			abs = cfg.copts.ErrorBound
		}
		cfg.copts.Mode = compressor.ABS
		cfg.copts.ErrorBound = abs
	}
	if cfg.partitioner == nil {
		cfg.partitioner = partition.FixedSlab{}
	}
	// Partitioners that can detect misconfiguration (e.g. a quadtree with no
	// bound policy to solve per region) surface it here rather than at Close.
	if v, ok := cfg.partitioner.(interface{ Validate(partition.Env) error }); ok {
		if err := v.Validate(cfg.env()); err != nil {
			return nil, err
		}
	}
	return cfg, nil
}
