package stream

import (
	"fmt"
	"io"
	"sync"
	"time"

	"rqm/internal/codec"
	"rqm/internal/compressor"
	"rqm/internal/grid"
	"rqm/internal/partition"
	"rqm/internal/stats"
)

// Stats summarizes one finished stream write.
type Stats struct {
	// Chunks is the number of chunk records emitted.
	Chunks int
	// Values is the total sample count.
	Values int64
	// BytesIn is the input size at the stream's precision.
	BytesIn int64
	// BytesOut is the container size including header, trailer, and footer.
	BytesOut int64
	// Ratio is BytesIn over BytesOut.
	Ratio float64
	// MinBound and MaxBound are the smallest and largest per-chunk absolute
	// bounds used (equal unless an AdaptiveBound policy varied them).
	MinBound, MaxBound float64
	// Splits is the number of split decisions the partitioner took while
	// planning chunks (0 under fixed slabs).
	Splits int
	// EncodeTime is the wall time from NewWriter to Close.
	EncodeTime time.Duration
}

// Writer compresses a value stream into a chunked container through a
// bounded worker pipeline: Write/WriteValues accumulate a planning window,
// the partitioner maps each window to one or more regions, regions fan out
// to the worker pool as chunks — each worker solves its region's bound with
// Env.SolveRegion when an AdaptiveBound policy is set — and a sequencer
// writes the compressed records back in input order. Under the default
// fixed-slab partitioner a window is one chunk, at most workers+2 chunks are
// in flight, and memory stays O(workers × chunk size) however long the
// stream runs; whole-stream partitioners (WindowValues 0, e.g. the variance
// quadtree) buffer the stream and plan once at Close, trading that bound for
// O(stream) memory.
//
// A Writer is single-producer: Write, WriteValues, and Close must come from
// one goroutine (the compression fan-out happens internally). Close flushes
// the final partial window and appends the trailer index; the container is
// unreadable until Close returns nil.
type Writer struct {
	cfg          *config
	env          partition.Env
	windowValues int // partitioner window (0 = whole stream, planned at Close)
	dst          *countWriter
	start        time.Time

	buf    []float64 // accumulating window (the whole stream when windowValues is 0)
	rem    []byte    // partial value carried between Write calls
	splits int       // split decisions across all plans (producer-owned)

	order chan chan result // per-chunk result slots, in input order
	jobs  chan job

	workerWG sync.WaitGroup
	seqDone  chan struct{}

	mu       sync.Mutex
	firstErr error

	// sequencer-owned until seqDone closes
	entries     []codec.IndexEntry
	totalValues int64
	minBound    float64
	maxBound    float64

	closed bool
	stats  Stats
}

type job struct {
	vals        []float64
	windowRange float64 // value range of vals's window (0 = vals is the window)
	recycle     bool    // vals is a whole pool buffer, return it after use
	res         chan result
}

type result struct {
	chunk *codec.Chunk
	err   error
}

// NewWriter starts a streaming compressor over w. The stream header is
// written immediately; the caller must Close to finalize the container.
func NewWriter(w io.Writer, opts ...Option) (*Writer, error) {
	cfg, err := newConfig(opts)
	if err != nil {
		return nil, err
	}
	env := cfg.env()
	windowValues := cfg.partitioner.WindowValues(env)
	if windowValues < 0 {
		return nil, fmt.Errorf("stream: partitioner %q window %d is negative",
			cfg.partitioner.Name(), windowValues)
	}
	sw := &Writer{
		cfg:          cfg,
		env:          env,
		windowValues: windowValues,
		dst:          &countWriter{w: w},
		start:        time.Now(),
		order:        make(chan chan result, cfg.workers+2),
		jobs:         make(chan job, cfg.workers),
		seqDone:      make(chan struct{}),
	}
	if windowValues > 0 {
		sw.buf = sw.nextBuf()
	}
	// The header's chunk size stays nominal: the partitioner may emit
	// smaller or unequal chunks (each record carries its own count), but the
	// configured size is what readers can size buffers against.
	nominal := cfg.chunkValues
	if windowValues > 0 {
		nominal = windowValues
	}
	hdr := &codec.StreamHeader{
		CodecID:     cfg.codec.ID(),
		Prec:        cfg.prec,
		Dims:        cfg.dims,
		Name:        cfg.name,
		ChunkValues: nominal,
	}
	if _, err := codec.WriteStreamHeader(sw.dst, hdr); err != nil {
		return nil, err
	}
	for i := 0; i < cfg.workers; i++ {
		sw.workerWG.Add(1)
		go sw.worker()
	}
	go sw.sequencer()
	return sw, nil
}

// WriteValues appends samples to the stream, dispatching full planning
// windows to the compression pool. It blocks while the pipeline is
// saturated. Under a whole-stream partitioner nothing is dispatched until
// Close, which plans and compresses the buffered stream in one pass.
func (w *Writer) WriteValues(vals []float64) error {
	if w.closed {
		return ErrClosed
	}
	for len(vals) > 0 {
		if err := w.err(); err != nil {
			return err
		}
		n := len(vals)
		if w.windowValues > 0 {
			n = min(n, w.windowValues-len(w.buf))
		}
		w.buf = append(w.buf, vals[:n]...)
		vals = vals[n:]
		if len(w.buf) == w.windowValues {
			w.plan()
		}
	}
	return w.err()
}

// Write appends raw little-endian samples in the stream's precision
// (float32 or float64 per WithShape), making the Writer an io.Writer a raw
// sample file can be piped into. Partial values are carried across calls.
func (w *Writer) Write(p []byte) (int, error) {
	if w.closed {
		return 0, ErrClosed
	}
	total := len(p)
	width := w.cfg.prec.Bits() / 8
	if len(w.rem) > 0 {
		need := width - len(w.rem)
		if need > len(p) {
			w.rem = append(w.rem, p...)
			return total, nil
		}
		w.rem = append(w.rem, p[:need]...)
		p = p[need:]
		if err := w.WriteValues(grid.DecodeSamples(nil, w.cfg.prec, w.rem)); err != nil {
			return total - len(p), err
		}
		w.rem = w.rem[:0]
	}
	if full := len(p) / width * width; full > 0 {
		if err := w.WriteValues(grid.DecodeSamples(make([]float64, 0, full/width), w.cfg.prec, p[:full])); err != nil {
			return total - len(p), err
		}
		p = p[full:]
	}
	if len(p) > 0 {
		w.rem = append(w.rem, p...)
	}
	return total, nil
}

// WriteField streams a whole field's samples.
func (w *Writer) WriteField(f *grid.Field) error {
	if f == nil {
		return fmt.Errorf("stream: nil field")
	}
	return w.WriteValues(f.Data)
}

// plan runs the partitioner over the accumulated window and dispatches its
// regions. The common case — one region covering a full window, which is all
// FixedSlab ever plans — ships the accumulation buffer itself and recycles it
// through the chunk-buffer pool, exactly the historical fast path. Regions of
// a multi-region plan alias one buffer, so none recycles (it goes to the
// collector once all chunks are done), and each carries the window's value
// range for the per-region solve. A whole-stream buffer is never pooled.
func (w *Writer) plan() {
	window := w.buf
	plan, err := w.cfg.partitioner.Partition(window, w.env)
	if err == nil {
		err = plan.Validate(len(window))
	}
	if err != nil {
		w.fail(err)
		return
	}
	w.splits += plan.Splits
	w.buf = nil
	if w.windowValues > 0 {
		w.buf = w.nextBuf()
	}
	if len(plan.Regions) == 1 {
		w.dispatch(window, 0, w.windowValues > 0)
		return
	}
	var windowRange float64
	if w.env.Policy != nil {
		lo, hi := stats.MinMax(window)
		windowRange = hi - lo
	}
	for _, r := range plan.Regions {
		if w.err() != nil {
			return
		}
		w.dispatch(window[r.Off:r.Off+r.Len], windowRange, false)
	}
}

// nextBuf draws an empty accumulation buffer of window capacity from the
// codec's shared chunk-buffer pool (codec.GetValues), so window buffers
// recycle from one stream to the next, not just within one.
func (w *Writer) nextBuf() []float64 {
	b := codec.GetValues()
	if cap(*b) < w.windowValues {
		return make([]float64, 0, w.windowValues)
	}
	return (*b)[:0]
}

// dispatch hands one region to the pool. The order channel's capacity is the
// pipeline's chunk-in-flight budget, so this blocks (and back-pressures the
// producer) when the pool is saturated. Whole-buffer regions are recycled:
// the producer draws the next accumulation buffer from the chunk-buffer pool
// and workers return finished buffers to it, so a steady-state stream reuses
// the same workers+2 buffers however long it runs.
func (w *Writer) dispatch(vals []float64, windowRange float64, recycle bool) {
	res := make(chan result, 1)
	w.order <- res
	w.jobs <- job{vals: vals, windowRange: windowRange, recycle: recycle, res: res}
}

// compressChunk is the compress workers' work: a variable only so the
// package's tests can make a worker panic.
var compressChunk = (*Writer).compressChunk

// compress is compressChunk with a panic turned into that chunk's error,
// wrapping codec.ErrCorrupt: the pool runs outside any caller's recover, so
// an unrecovered one would end the process.
func (w *Writer) compress(j job) (c *codec.Chunk, err error) {
	defer func() {
		if p := recover(); p != nil {
			c, err = nil, fmt.Errorf("%w: chunk compressor panicked: %v", codec.ErrCorrupt, p)
		}
	}()
	return compressChunk(w, j)
}

// worker compresses chunks until the job channel closes.
func (w *Writer) worker() {
	defer w.workerWG.Done()
	for j := range w.jobs {
		if w.err() != nil {
			j.res <- result{err: w.err()}
			continue
		}
		c, err := w.compress(j)
		if j.recycle {
			// The compressor copies the chunk into its own work buffer and
			// the payload never aliases vals, so the buffer can be recycled
			// now. Sub-window regions skip this: they alias a shared window.
			vals := j.vals[:0]
			codec.PutValues(&vals)
		}
		j.res <- result{chunk: c, err: err}
	}
}

// compressChunk encodes one region as a 1-D field, in ABS mode at the bound
// Env.SolveRegion solves for it under an AdaptiveBound policy, and under the
// writer's options otherwise.
func (w *Writer) compressChunk(j job) (*codec.Chunk, error) {
	f, err := grid.FromData("", w.cfg.prec, j.vals, len(j.vals))
	if err != nil {
		return nil, err
	}
	c := w.cfg.codec
	copts := w.cfg.copts
	if w.env.Policy != nil {
		copts.Mode = compressor.ABS
		copts.ErrorBound, _ = w.env.SolveRegion(j.vals, j.windowRange)
	}
	payload, err := c.Compress(f, copts)
	if err != nil {
		return nil, err
	}
	return &codec.Chunk{
		CodecID:  c.ID(),
		AbsBound: resolveAbsBound(copts),
		Values:   len(j.vals),
		Payload:  payload,
	}, nil
}

// resolveAbsBound maps the chunk's (mode, bound) to the absolute bound
// recorded in the chunk header. REL never reaches the chunk level — the
// config resolves it once against the stream-global value range — so an ABS
// bound here is exactly the bound the codec enforced on this chunk, constant
// chunks included; PWREL has no single absolute bound and records 0.
func resolveAbsBound(copts codec.Options) float64 {
	if copts.Mode == compressor.ABS {
		return copts.ErrorBound
	}
	return 0
}

// sequencer drains per-chunk results in input order and writes the records.
func (w *Writer) sequencer() {
	defer close(w.seqDone)
	for rc := range w.order {
		res := <-rc
		if res.err != nil {
			w.fail(res.err)
			continue
		}
		if w.err() != nil {
			continue // drain without writing after a failure
		}
		off := w.dst.n
		n, err := codec.WriteChunk(w.dst, res.chunk)
		if err != nil {
			w.fail(err)
			continue
		}
		w.entries = append(w.entries, codec.IndexEntry{
			Offset:      off,
			Values:      res.chunk.Values,
			RecordBytes: int(n),
			AbsBound:    res.chunk.AbsBound,
		})
		w.totalValues += int64(res.chunk.Values)
		if len(w.entries) == 1 || res.chunk.AbsBound < w.minBound {
			w.minBound = res.chunk.AbsBound
		}
		if res.chunk.AbsBound > w.maxBound {
			w.maxBound = res.chunk.AbsBound
		}
	}
}

// Close flushes the final partial chunk, drains the pipeline, and writes
// the trailer index and footer. The container is valid only if Close
// returns nil.
func (w *Writer) Close() error {
	if w.closed {
		return ErrClosed
	}
	w.closed = true
	if len(w.rem) > 0 {
		w.fail(fmt.Errorf("stream: %d trailing bytes do not form a value", len(w.rem)))
	}
	if len(w.buf) > 0 && w.err() == nil {
		w.plan()
	}
	close(w.jobs)
	w.workerWG.Wait()
	close(w.order)
	<-w.seqDone
	if w.windowValues > 0 && cap(w.buf) > 0 {
		// The accumulation buffer drawn after the last window: nothing
		// writes to a closed stream, so it goes back to the pool.
		vals := w.buf[:0]
		codec.PutValues(&vals)
		w.buf = nil
	}
	if err := w.err(); err != nil {
		return err
	}
	if want, err := grid.ShapeLen(w.cfg.dims); err == nil && w.totalValues != int64(want) {
		err = fmt.Errorf("stream: wrote %d values, shape %v declares %d",
			w.totalValues, w.cfg.dims, want)
		w.fail(err)
		return err
	}
	if _, err := codec.WriteTrailer(w.dst, w.entries, w.totalValues, w.dst.n); err != nil {
		w.fail(err)
		return err
	}
	w.stats = Stats{
		Chunks:     len(w.entries),
		Values:     w.totalValues,
		BytesIn:    w.totalValues * int64(w.cfg.prec.Bits()/8),
		BytesOut:   w.dst.n,
		MinBound:   w.minBound,
		MaxBound:   w.maxBound,
		Splits:     w.splits,
		EncodeTime: time.Since(w.start),
	}
	if w.stats.BytesOut > 0 {
		w.stats.Ratio = float64(w.stats.BytesIn) / float64(w.stats.BytesOut)
	}
	return nil
}

// Stats reports the finished stream's totals; valid after Close returns nil.
func (w *Writer) Stats() Stats { return w.stats }

// err returns the sticky first pipeline error.
func (w *Writer) err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.firstErr
}

// fail records the first pipeline error.
func (w *Writer) fail(err error) {
	w.mu.Lock()
	if w.firstErr == nil {
		w.firstErr = err
	}
	w.mu.Unlock()
}

// countWriter tracks the container offset for index entries.
type countWriter struct {
	w io.Writer
	n int64
}

func (cw *countWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}
