package rqm

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"

	"rqm/internal/codec"
	"rqm/internal/core"
	"rqm/internal/ordered"
	"rqm/internal/tuner"
)

// Engine is the serving-scale entry point of the package: one configured
// (codec, options) pair behind a compressor-agnostic surface, with
// context-aware worker-pool batch paths for multi-field datasets. A zero
// Engine is not usable; build one with NewEngine. Engines are safe for
// concurrent use — all configuration happens at construction.
type Engine struct {
	codec   Codec
	copts   codec.Options
	mopts   core.Options
	workers int
}

// EngineOption configures an Engine at construction.
type EngineOption func(*Engine) error

// WithCodecName selects the backend by name ("prediction", "transform", ...).
func WithCodecName(name string) EngineOption {
	return func(e *Engine) error {
		c, err := codec.ByName(name)
		if err != nil {
			return err
		}
		e.codec = c
		return nil
	}
}

// WithErrorBound sets the error bound (in WithMode semantics).
func WithErrorBound(eb float64) EngineOption {
	return func(e *Engine) error {
		if !(eb > 0) {
			return fmt.Errorf("rqm: error bound must be positive, got %v", eb)
		}
		e.copts.ErrorBound = eb
		return nil
	}
}

// WithMode sets the error-bound interpretation (ABS, REL, PWREL).
func WithMode(m ErrorMode) EngineOption {
	return func(e *Engine) error {
		e.copts.Mode = m
		return nil
	}
}

// WithPredictor sets the prediction scheme (prediction codec only).
func WithPredictor(k PredictorKind) EngineOption {
	return func(e *Engine) error {
		e.copts.Predictor = k
		return nil
	}
}

// WithLossless sets the optional lossless stage (prediction codec only).
func WithLossless(l LosslessKind) EngineOption {
	return func(e *Engine) error {
		e.copts.Lossless = l
		return nil
	}
}

// WithConcurrency sets the batch worker count (default GOMAXPROCS).
func WithConcurrency(n int) EngineOption {
	return func(e *Engine) error {
		if n < 1 {
			return fmt.Errorf("rqm: concurrency must be at least 1, got %d", n)
		}
		e.workers = n
		return nil
	}
}

// WithModelOptions sets the sampling rate, seed and correction switch of the
// ratio-quality model used by Profile, SelectCodec, and CompressToBudget. The
// modeled pipeline (entropy stage, lossless stage) always follows the
// engine's codec and options; those fields of mo are ignored.
func WithModelOptions(mo ModelOptions) EngineOption {
	return func(e *Engine) error {
		e.mopts = mo
		return nil
	}
}

// NewEngine builds an Engine. Defaults: prediction codec, REL mode at 1e-3,
// Lorenzo predictor, no lossless stage, GOMAXPROCS batch workers.
func NewEngine(opts ...EngineOption) (*Engine, error) {
	e := &Engine{
		copts: codec.Options{Mode: REL, ErrorBound: 1e-3, Predictor: Lorenzo},
	}
	var err error
	if e.codec, err = codec.ByID(codec.IDPrediction); err != nil {
		return nil, err
	}
	for _, opt := range opts {
		if err := opt(e); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// Codec returns the configured backend.
func (e *Engine) Codec() Codec { return e.codec }

// Options returns the configured compression options.
func (e *Engine) Options() CodecOptions { return e.copts }

// Concurrency returns the effective batch worker count.
func (e *Engine) Concurrency() int {
	if e.workers > 0 {
		return e.workers
	}
	return runtime.GOMAXPROCS(0)
}

// Compress encodes one field into a sealed envelope container.
func (e *Engine) Compress(f *Field) (*CodecResult, error) {
	return codec.Compress(e.codec, f, e.copts)
}

// Decompress reconstructs a field from any container — produced by this
// engine, another codec's engine, or the streaming writer — routing by
// inspection, exactly as the package-level Decompress does.
func (e *Engine) Decompress(data []byte) (*Field, error) { return Decompress(data) }

// Profile builds the ratio-quality profile of f under the configured codec.
func (e *Engine) Profile(f *Field) (*Profile, error) {
	return e.codec.Profile(f, e.copts, e.mopts)
}

// CompressBatch compresses fields concurrently on the engine's worker pool.
// The result slice is index-aligned with fields. The first error in index
// order (a codec panic is one, wrapping ErrCorrupt), or ctx's end, abandons
// the remaining work: the entries before the failing one come back filled,
// the rest nil, alongside the error.
func (e *Engine) CompressBatch(ctx context.Context, fields []*Field) ([]*CodecResult, error) {
	return batch(ctx, e.Concurrency(), fields, func(i int, f *Field) (*CodecResult, error) {
		if f == nil {
			return nil, fmt.Errorf("rqm: batch field %d is nil", i)
		}
		res, err := codec.Compress(e.codec, f, e.copts)
		if err != nil {
			return nil, fmt.Errorf("rqm: batch field %d (%q): %w", i, f.Name, err)
		}
		return res, nil
	})
}

// DecompressBatch reconstructs containers concurrently, routing each blob to
// its backend by inspection. Result semantics match CompressBatch.
func (e *Engine) DecompressBatch(ctx context.Context, blobs [][]byte) ([]*Field, error) {
	return batch(ctx, e.Concurrency(), blobs, func(i int, blob []byte) (*Field, error) {
		f, err := codec.Decompress(blob)
		if err != nil {
			return nil, fmt.Errorf("rqm: batch container %d: %w", i, err)
		}
		return f, nil
	})
}

// batch runs work over items on an ordered pool and collects the results in
// index order up to the first error; once ctx ends, every job not yet
// started fails with ctx's error.
func batch[T, R any](ctx context.Context, workers int, items []T, work func(int, T) (R, error)) ([]R, error) {
	out := make([]R, len(items))
	p := ordered.New(max(1, min(workers, len(items))), func(i int) (R, error) {
		if err := ctx.Err(); err != nil {
			var zero R
			return zero, err
		}
		return work(i, items[i])
	})
	defer p.Stop()
	p.Go(func() {
		for i := range items {
			if !p.Submit(i) {
				return
			}
		}
	})
	for i := range out {
		r, err := p.Next()
		if err != nil {
			return out, err
		}
		out[i] = r
	}
	return out, ctx.Err()
}

// CompressToBudget compresses f so the sealed container fits budgetBytes
// (use-case B on the configured codec). p is the field's profile from
// Engine.Profile — reuse it across calls to pay the sampling pass once; pass
// nil to have one built for this call.
func (e *Engine) CompressToBudget(f *Field, p *Profile, budgetBytes int64, headroom float64, strict bool) (*MemoryPlan, error) {
	if p == nil {
		var err error
		if p, err = e.Profile(f); err != nil {
			return nil, err
		}
	}
	return tuner.CompressToBudget(f, p, e.codec, budgetBytes, headroom, strict, e.copts)
}

// NewStreamWriter starts a streaming compressor over w configured like this
// engine: same codec, compression options, model options, and worker count.
// Extra stream options (chunk size, shape, an AdaptiveBound policy, ...)
// apply on top. A REL-mode engine must also declare the stream-global value
// range (WithStreamValueRange) or go through NewFieldStreamWriter, which
// resolves it from the field; otherwise NewWriter fails with
// ErrStreamNeedsValueRange.
func (e *Engine) NewStreamWriter(w io.Writer, extra ...StreamOption) (*StreamWriter, error) {
	opts := []StreamOption{
		WithStreamCodecName(e.codec.Name()),
		WithStreamCompression(e.copts),
		WithStreamModel(e.mopts),
		WithStreamWorkers(e.Concurrency()),
	}
	return NewWriter(w, append(opts, extra...)...)
}

// NewFieldStreamWriter starts a streaming compressor over w for one known
// field: the field's shape and name are recorded up front, and a REL-mode
// engine also records the field's value range, so its bound resolves once
// against the whole field's range — the same absolute guarantee whole-buffer
// REL compression enforces. ABS and PWREL read no range, so their fields
// may hold ±Inf or NaN as Engine.Compress allows, while a REL field whose
// range is not finite fails with ErrStreamNeedsValueRange. The caller still
// streams the samples (WriteField/WriteValues) and must Close.
func (e *Engine) NewFieldStreamWriter(w io.Writer, f *Field, extra ...StreamOption) (*StreamWriter, error) {
	if f == nil {
		return nil, errors.New("rqm: nil field")
	}
	opts := []StreamOption{
		WithStreamShape(f.Prec, f.Dims...),
		WithStreamFieldName(f.Name),
	}
	if e.copts.Mode == REL {
		opts = append(opts, WithStreamValueRange(f.ValueRange()))
	}
	return e.NewStreamWriter(w, append(opts, extra...)...)
}

// SelectCodec ranks every codec for f at a PSNR target using the
// engine's configuration (codec auto-selection in one call).
func (e *Engine) SelectCodec(f *Field, targetPSNR float64) ([]CodecChoice, error) {
	return tuner.SelectCodec(f, codec.All(), targetPSNR, e.copts, e.mopts)
}
