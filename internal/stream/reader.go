package stream

import (
	"bytes"
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

// Reader decompresses a container with the Writer's pipeline run in reverse:
// a feeder walks the records sequentially (codec.Records, the one parser of
// both grammars: a v1 envelope reads as a stream of one record) and fans
// the payloads out to a decode pool, and consumption hands chunks back in
// stream order. Payload CRCs are verified on the pool, and the walker
// reconciles trailer and footer with the records it saw, entry for entry,
// before EOF is reported.
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

	cur     []float64  // decoded values Read has not serialized yet
	curBuf  *[]float64 // the pooled chunk buffer cur points into
	buf     []byte     // Read's fixed sample buffer (allocated on first Read)
	encoded []byte     // serialized samples Read has not returned yet
	readErr error      // sticky

	values int64
}

// decResult is one decoded chunk: its values live in a buffer from the
// codec's chunk-buffer pool, which the consumer returns once it has copied
// or serialized them (NextChunk hands it to its caller instead).
type decResult struct {
	vals *[]float64
	err  error
}

type decJob struct {
	chunk *codec.Chunk
	pb    *bytes.Buffer // the pooled payload buffer chunk.Payload aliases
	res   chan decResult
}

// NewReader parses the container head of src (a chunked stream's header or
// a v1 envelope's) and starts the decode pipeline.
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
				j.res <- decode(j)
			}
		}()
	}
	defer wg.Wait()
	defer close(jobs)

	for {
		pb := codec.GetPayload()
		c, err := r.recs.Next(pb)
		if err != nil {
			codec.PutPayload(pb)
			if err != io.EOF {
				r.emitErr(err)
			}
			return
		}
		res := make(chan decResult, 1)
		select {
		case r.pending <- res:
		case <-r.done:
			return
		}
		select {
		case jobs <- decJob{chunk: c, pb: pb, res: res}:
		case <-r.done:
			return
		}
	}
}

// decodeChunkInto is the decode workers' codec call: a variable only so the
// package's tests can make a worker panic.
var decodeChunkInto = codec.DecodeChunkInto

// decode verifies and decodes one chunk into a pooled buffer, recycling the
// payload buffer either way. A decoder panic becomes that chunk's error,
// wrapping codec.ErrCorrupt: the pool runs outside any caller's recover, so
// an unrecovered one would end the process.
func decode(j decJob) (res decResult) {
	defer codec.PutPayload(j.pb)
	defer func() {
		if p := recover(); p != nil {
			res = decResult{err: fmt.Errorf("%w: chunk decoder panicked: %v", codec.ErrCorrupt, p)}
		}
	}()
	if err := j.chunk.Verify(); err != nil {
		return decResult{err: err}
	}
	b := codec.GetValues()
	vals, err := decodeChunkInto(*b, j.chunk)
	if err != nil {
		codec.PutValues(b)
		return decResult{err: err}
	}
	*b = vals
	return decResult{vals: b}
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
	b, err := r.next()
	if err != nil {
		return nil, err
	}
	return *b, nil // the caller keeps it, so it never returns to the pool
}

// next is NextChunk handing back the pooled buffer itself, for the readers
// that consume it and return it (codec.PutValues).
func (r *Reader) next() (*[]float64, error) {
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
	r.values += int64(len(*res.vals))
	return res.vals, nil
}

// Read serializes the decompressed stream as raw little-endian samples in
// the stream's precision — the mirror of Writer.Write, so a stream can be
// piped back into a raw sample file with io.Copy. Samples are encoded
// through one fixed buffer per Reader, sized like io.Copy's.
func (r *Reader) Read(p []byte) (int, error) {
	prec := r.recs.Header.Prec
	for len(r.encoded) == 0 {
		if err := r.fill(); err != nil {
			return 0, err
		}
		if r.buf == nil {
			r.buf = make([]byte, 0, 32<<10)
		}
		k := min(len(r.cur), cap(r.buf)/(prec.Bits()/8))
		r.encoded = grid.EncodeSamples(r.buf, prec, r.cur[:k])
		if r.cur = r.cur[k:]; len(r.cur) == 0 {
			codec.PutValues(r.curBuf)
			r.curBuf = nil
		}
	}
	n := copy(p, r.encoded)
	r.encoded = r.encoded[n:]
	return n, nil
}

// fill makes cur hold the next chunk's values once Read has serialized the
// last ones.
func (r *Reader) fill() error {
	if len(r.cur) > 0 {
		return nil
	}
	b, err := r.next()
	if err != nil {
		return err
	}
	r.curBuf, r.cur = b, *b
	return nil
}

// WriteField writes the stream to w as a .rqmf field — the header from the
// stream's shape, then the samples as Read serializes them — and fails if
// the stream does not hold exactly the values that shape declares. The
// first chunk decodes before the header is written, so a stream that cannot
// decode at all fails with nothing written (a server can still answer it
// with an error status). A stream of unknown shape (rank 0) has no .rqmf
// header; ReadAll reassembles it.
func (r *Reader) WriteField(w io.Writer) (int64, error) {
	if err := r.fill(); err != nil && err != io.EOF {
		return 0, err
	}
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
		b, err := r.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		vals = append(vals, *b...)
		codec.PutValues(b)
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
