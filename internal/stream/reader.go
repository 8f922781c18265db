package stream

import (
	"bytes"
	"fmt"
	"io"

	"rqm/internal/codec"
	"rqm/internal/grid"
	"rqm/internal/ordered"
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
// A Reader is single-consumer: NextChunk, Read, ReadAll, and Close must come
// from one goroutine, and after Close the reads return ErrClosed.
type Reader struct {
	recs    *codec.Records
	workers int

	// pool runs the feeder and the decode workers. A result is a chunk
	// decoded into a codec.GetValues buffer, which the consumer returns
	// (NextChunk hands it to its caller instead).
	pool *ordered.Pool[decJob, *[]float64]

	cur     []float64  // decoded values Read has not serialized yet
	curBuf  *[]float64 // the pooled chunk buffer cur points into
	buf     []byte     // Read's fixed sample buffer (allocated on first Read)
	encoded []byte     // serialized samples Read has not returned yet
	readErr error      // sticky

	values int64
}

// decJob is one record to decode, or the feeder's error in its place.
type decJob struct {
	chunk *codec.Chunk
	pb    *bytes.Buffer // the pooled payload buffer chunk.Payload aliases
	err   error
}

// NewReader parses the container head of src (a chunked stream's header or
// a v1 envelope's) and starts the decode pipeline.
// Header parse failures surface immediately with the typed container errors.
func NewReader(src io.Reader, opts ...ReaderOption) (*Reader, error) {
	recs, err := codec.OpenRecords(src)
	if err != nil {
		return nil, err
	}
	r := &Reader{recs: recs}
	for _, opt := range opts {
		if err := opt(r); err != nil {
			return nil, err
		}
	}
	r.pool = ordered.New(r.workers, decode)
	r.pool.Go(r.feed)
	return r, nil
}

// Header returns the stream header (codec, shape, name, chunk size).
func (r *Reader) Header() codec.StreamHeader { return r.recs.Header }

// feed walks the records, dispatching chunk payloads to the decode pool.
// The feeder is deliberately I/O-only: payload checksumming and decoding
// both happen on the workers, so the serial section of the pipeline is just
// reading bytes and parsing 21-byte record heads.
func (r *Reader) feed() {
	defer r.pool.Close()
	for {
		pb := codec.GetPayload()
		c, err := r.recs.Next(pb)
		if err != nil {
			codec.PutPayload(pb)
			if err != io.EOF {
				r.pool.Submit(decJob{err: err})
			}
			return
		}
		if !r.pool.Submit(decJob{chunk: c, pb: pb}) {
			codec.PutPayload(pb)
			return
		}
	}
}

// decodeChunkInto is the decode workers' codec call: a variable only so the
// package's tests can make a worker panic.
var decodeChunkInto = codec.DecodeChunkInto

// decode verifies and decodes one chunk into a pooled buffer, recycling the
// payload buffer either way.
func decode(j decJob) (*[]float64, error) {
	if j.err != nil {
		return nil, j.err
	}
	defer codec.PutPayload(j.pb)
	if err := j.chunk.Verify(); err != nil {
		return nil, err
	}
	b := codec.GetValues()
	vals, err := decodeChunkInto(*b, j.chunk)
	if err != nil {
		codec.PutValues(b)
		return nil, err
	}
	*b = vals
	return b, nil
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
	b, err := r.pool.Next()
	if err != nil {
		r.readErr = err
		r.pool.Stop()
		return nil, err
	}
	r.values += int64(len(*b))
	return b, nil
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

// Close abandons the pipeline early; reading past EOF or an error stops it
// implicitly. Close blocks until the feeder goroutine has stopped touching
// the source reader, so once it returns the caller owns the source
// exclusively again (the serving layer relies on this to drain request
// bodies safely). Every read after Close returns ErrClosed.
func (r *Reader) Close() error {
	r.readErr, r.cur, r.encoded = ErrClosed, nil, nil
	r.pool.Stop()
	return nil
}
