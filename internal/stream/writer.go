package stream

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"
	"time"

	"rqm/internal/codec"
	"rqm/internal/compressor"
	"rqm/internal/grid"
	"rqm/internal/partition"
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
// to the worker pool as chunks, and a sequencer writes the compressed
// records back in input order. Under the default fixed-slab partitioner a
// window is one chunk, at most workers+2 chunks are in flight, and memory
// stays O(workers × chunk size) however long the stream runs; whole-stream
// partitioners (WindowValues 0, e.g. the variance quadtree) buffer the
// stream and plan once at Close, trading that bound for O(stream) memory.
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

	buf     []float64 // accumulating window (incremental mode)
	all     []float64 // accumulating stream (whole-stream mode)
	rem     []byte    // partial value carried between Write calls
	splits  int       // split decisions across all plans (producer-owned)
	bufPool sync.Pool // recycled chunk buffers ([]float64 with window capacity)

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
	vals    []float64
	bound   float64 // partitioner-solved ABS bound (0 = writer options)
	recycle bool    // vals is a whole pool buffer, return it after use
	res     chan result
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
		sw.buf = make([]float64, 0, windowValues)
	}
	sw.bufPool.New = func() interface{} {
		b := make([]float64, 0, windowValues)
		return &b
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
	if w.windowValues == 0 {
		if err := w.err(); err != nil {
			return err
		}
		w.all = append(w.all, vals...)
		return nil
	}
	for len(vals) > 0 {
		if err := w.err(); err != nil {
			return err
		}
		n := w.windowValues - len(w.buf)
		if n > len(vals) {
			n = len(vals)
		}
		w.buf = append(w.buf, vals[:n]...)
		vals = vals[n:]
		if len(w.buf) == w.windowValues {
			w.planWindow()
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
		if err := w.WriteValues([]float64{w.decodeValue(w.rem)}); err != nil {
			return total - len(p), err
		}
		w.rem = w.rem[:0]
	}
	if full := len(p) / width; full > 0 {
		vals := make([]float64, full)
		for i := range vals {
			vals[i] = w.decodeValue(p[i*width : (i+1)*width])
		}
		if err := w.WriteValues(vals); err != nil {
			return total - len(p), err
		}
		p = p[full*width:]
	}
	if len(p) > 0 {
		w.rem = append(w.rem, p...)
	}
	return total, nil
}

// decodeValue converts one raw sample at the stream precision.
func (w *Writer) decodeValue(b []byte) float64 {
	if w.cfg.prec == grid.Float32 {
		return float64(math.Float32frombits(binary.LittleEndian.Uint32(b)))
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

// WriteField streams a whole field's samples.
func (w *Writer) WriteField(f *grid.Field) error {
	if f == nil {
		return fmt.Errorf("stream: nil field")
	}
	return w.WriteValues(f.Data)
}

// planWindow runs the partitioner over the accumulated window and dispatches
// its regions. The common case — one region covering the whole window, which
// is all FixedSlab ever plans — ships the accumulation buffer itself and
// recycles it through bufPool, exactly the historical fast path. Multi-region
// plans dispatch sub-slices of the window without recycling (the regions
// alias one buffer, so it goes to the collector once all chunks are done).
func (w *Writer) planWindow() {
	plan, err := w.cfg.partitioner.Partition(w.buf, w.env)
	if err == nil {
		err = plan.Validate(len(w.buf))
	}
	if err != nil {
		w.fail(err)
		return
	}
	w.splits += plan.Splits
	if len(plan.Regions) == 1 {
		r := plan.Regions[0]
		vals := w.buf
		w.buf = (*w.bufPool.Get().(*[]float64))[:0]
		w.dispatch(vals, r.Bound, true)
		return
	}
	window := w.buf
	w.buf = (*w.bufPool.Get().(*[]float64))[:0]
	for _, r := range plan.Regions {
		w.dispatch(window[r.Off:r.Off+r.Len], r.Bound, false)
	}
}

// planStream partitions the fully buffered stream (whole-stream mode) and
// dispatches every region. Regions alias the stream buffer, so none recycle;
// the order channel still bounds how many compressed chunks are in flight.
func (w *Writer) planStream() {
	plan, err := w.cfg.partitioner.Partition(w.all, w.env)
	if err == nil {
		err = plan.Validate(len(w.all))
	}
	if err != nil {
		w.fail(err)
		return
	}
	w.splits += plan.Splits
	for _, r := range plan.Regions {
		if w.err() != nil {
			return
		}
		w.dispatch(w.all[r.Off:r.Off+r.Len], r.Bound, false)
	}
}

// dispatch hands one region to the pool. The order channel's capacity is the
// pipeline's chunk-in-flight budget, so this blocks (and back-pressures the
// producer) when the pool is saturated. Whole-buffer regions are recycled:
// the producer draws the next accumulation buffer from bufPool and workers
// return finished buffers to it, so a steady-state stream reuses the same
// workers+2 buffers however long it runs.
func (w *Writer) dispatch(vals []float64, bound float64, recycle bool) {
	res := make(chan result, 1)
	w.order <- res
	w.jobs <- job{vals: vals, bound: bound, recycle: recycle, res: res}
}

// worker compresses chunks until the job channel closes.
func (w *Writer) worker() {
	defer w.workerWG.Done()
	for j := range w.jobs {
		if w.err() != nil {
			j.res <- result{err: w.err()}
			continue
		}
		c, err := w.compressChunk(j)
		if j.recycle {
			// The compressor copies the chunk into its own work buffer and
			// the payload never aliases vals, so the buffer can be recycled
			// now. Sub-window regions skip this: they alias a shared window.
			vals := j.vals[:0]
			w.bufPool.Put(&vals)
		}
		j.res <- result{chunk: c, err: err}
	}
}

// compressChunk encodes one region as a 1-D field. A partitioner-solved
// bound wins; otherwise the writer's own adaptive policy (if any) solves one
// per chunk — the historical fixed-slab adaptive mode — and plain options
// apply last.
func (w *Writer) compressChunk(j job) (*codec.Chunk, error) {
	f, err := grid.FromData("", w.cfg.prec, j.vals, len(j.vals))
	if err != nil {
		return nil, err
	}
	c := w.cfg.codec
	copts := w.cfg.copts
	switch {
	case j.bound > 0:
		copts.Mode = compressor.ABS
		copts.ErrorBound = j.bound
	case w.cfg.adaptive != nil:
		copts.Mode = compressor.ABS
		copts.ErrorBound = w.cfg.adaptive.BoundFor(c, f, copts, w.cfg.mopts)
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
		w.planWindow()
	}
	if w.windowValues == 0 && len(w.all) > 0 && w.err() == nil {
		w.planStream()
	}
	close(w.jobs)
	w.workerWG.Wait()
	close(w.order)
	<-w.seqDone
	if err := w.err(); err != nil {
		return err
	}
	if want := codec.ShapeValues(w.cfg.dims); want > 0 && w.totalValues != want {
		err := fmt.Errorf("stream: wrote %d values, shape %v declares %d",
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
