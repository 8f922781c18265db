package stream

import (
	"fmt"
	"io"
	"runtime"
	"sync"

	"rqm/internal/codec"
	"rqm/internal/grid"
)

// ReaderOption configures a Reader.
type ReaderOption func(*Reader) error

// WithReaderWorkers sets the number of concurrent chunk decompressors
// (default GOMAXPROCS).
func WithReaderWorkers(n int) ReaderOption {
	return func(r *Reader) error {
		if n < 1 {
			return fmt.Errorf("stream: reader workers must be at least 1, got %d", n)
		}
		r.workers = n
		return nil
	}
}

// Reader decompresses a chunked container with the Writer's pipeline run in
// reverse: a feeder walks the records sequentially (codec.Records, the one
// parser of the grammar) and fans the payloads out to a decode pool, and
// consumption hands chunks back in stream order. Payload CRCs are verified
// on the pool, and the walker reconciles trailer and footer with the records
// it saw, entry for entry, before EOF is reported.
//
// A Reader is single-consumer: NextChunk, Read, and ReadAll must come from
// one goroutine.
type Reader struct {
	recs    *codec.Records
	workers int

	pending  chan chan decResult // per-chunk result slots, in stream order
	done     chan struct{}
	feedDone chan struct{}
	once     sync.Once

	cur     []float64 // decoded values Read has not serialized yet
	buf     []byte    // Read's fixed sample buffer (allocated on first Read)
	encoded []byte    // serialized samples Read has not returned yet
	readErr error     // sticky

	values int64
}

type decResult struct {
	vals []float64
	err  error
}

type decJob struct {
	chunk *codec.Chunk
	crc   uint32
	res   chan decResult
}

// NewReader parses the stream header of src and starts the decode pipeline.
// Header parse failures surface immediately with the typed container errors.
func NewReader(src io.Reader, opts ...ReaderOption) (*Reader, error) {
	recs, err := codec.OpenRecords(src)
	if err != nil {
		return nil, err
	}
	r := &Reader{
		recs:     recs,
		done:     make(chan struct{}),
		feedDone: make(chan struct{}),
	}
	for _, opt := range opts {
		if err := opt(r); err != nil {
			return nil, err
		}
	}
	if r.workers == 0 {
		r.workers = runtime.GOMAXPROCS(0)
	}
	r.pending = make(chan chan decResult, r.workers+2)
	go r.feed()
	return r, nil
}

// Header returns the stream header (codec, shape, name, chunk size).
func (r *Reader) Header() codec.StreamHeader { return r.recs.Header }

// feed walks the records, dispatching chunk payloads to the decode pool.
// The feeder is deliberately I/O-only: payload checksumming and decoding
// both happen on the workers, so the serial section of the pipeline is just
// reading bytes and parsing 21-byte record heads.
func (r *Reader) feed() {
	defer close(r.feedDone)
	defer close(r.pending)
	jobs := make(chan decJob, r.workers)
	var wg sync.WaitGroup
	for i := 0; i < r.workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				if err := codec.VerifyChunk(j.chunk, j.crc); err != nil {
					j.res <- decResult{err: err}
					continue
				}
				vals, err := codec.DecodeChunk(j.chunk)
				j.res <- decResult{vals: vals, err: err}
			}
		}()
	}
	defer wg.Wait()
	defer close(jobs)

	for {
		c, crc, err := r.recs.Next()
		if err == io.EOF {
			return
		}
		if err != nil {
			r.emitErr(err)
			return
		}
		res := make(chan decResult, 1)
		select {
		case r.pending <- res:
		case <-r.done:
			return
		}
		select {
		case jobs <- decJob{chunk: c, crc: crc, res: res}:
		case <-r.done:
			return
		}
	}
}

// emitErr delivers a feeder error as the next in-order result.
func (r *Reader) emitErr(err error) {
	res := make(chan decResult, 1)
	res <- decResult{err: err}
	select {
	case r.pending <- res:
	case <-r.done:
	}
}

// NextChunk returns the next chunk's decoded samples in stream order, or
// io.EOF after the last chunk of a valid stream. The returned slice is
// owned by the caller.
func (r *Reader) NextChunk() ([]float64, error) {
	if r.readErr != nil {
		return nil, r.readErr
	}
	rc, ok := <-r.pending
	if !ok {
		r.readErr = io.EOF
		return nil, io.EOF
	}
	res := <-rc
	if res.err != nil {
		r.readErr = res.err
		r.Close()
		return nil, res.err
	}
	r.values += int64(len(res.vals))
	return res.vals, nil
}

// Read serializes the decompressed stream as raw little-endian samples in
// the stream's precision — the mirror of Writer.Write, so a stream can be
// piped back into a raw sample file with io.Copy. Samples are encoded
// through one fixed buffer per Reader, sized like io.Copy's.
func (r *Reader) Read(p []byte) (int, error) {
	prec := r.recs.Header.Prec
	for len(r.encoded) == 0 {
		if len(r.cur) == 0 {
			vals, err := r.NextChunk()
			if err != nil {
				return 0, err
			}
			r.cur = vals
		}
		if r.buf == nil {
			r.buf = make([]byte, 0, 32<<10)
		}
		k := min(len(r.cur), cap(r.buf)/(prec.Bits()/8))
		r.encoded = grid.EncodeSamples(r.buf, prec, r.cur[:k])
		r.cur = r.cur[k:]
	}
	n := copy(p, r.encoded)
	r.encoded = r.encoded[n:]
	return n, nil
}

// WriteField writes the stream to w as a .rqmf field — the header from the
// stream's shape, then the samples as Read serializes them — and fails if
// the stream does not hold exactly the values that shape declares. A stream
// of unknown shape (rank 0) has no .rqmf header; ReadAll reassembles it.
func (r *Reader) WriteField(w io.Writer) (int64, error) {
	h := &r.recs.Header
	n, err := grid.WriteHeader(w, h.Prec, h.Dims)
	if err != nil {
		return n, err
	}
	m, err := io.Copy(w, r)
	n += m
	if want := h.TotalFromDims(); err == nil && r.values != want {
		err = fmt.Errorf("stream: decodes to %d values, header shape %v declares %d", r.values, h.Dims, want)
	}
	return n, err
}

// ReadAll drains the stream and reassembles the field: the header's shape
// when it matches the value count, 1-D otherwise. An empty (zero-chunk)
// stream returns ErrEmptyStream.
func (r *Reader) ReadAll() (*grid.Field, error) {
	vals := r.recs.Header.ValueBuffer()
	for {
		chunk, err := r.NextChunk()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		vals = append(vals, chunk...)
	}
	if len(vals) == 0 {
		return nil, ErrEmptyStream
	}
	return codec.AssembleField(&r.recs.Header, vals)
}

// Values reports how many samples have been consumed so far.
func (r *Reader) Values() int64 { return r.values }

// Close abandons the pipeline early; reading past EOF or an error closes
// the Reader implicitly. Close blocks until the feeder goroutine has
// stopped touching the source reader, so once it returns the caller owns
// the source exclusively again (the serving layer relies on this to drain
// request bodies safely).
func (r *Reader) Close() error {
	r.once.Do(func() { close(r.done) })
	<-r.feedDone
	return nil
}
