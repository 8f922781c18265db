package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sync"

	"rqm/internal/grid"
	"rqm/internal/poison"
)

// Chunked (envelope version 2) container: the streaming sibling of the
// single-payload envelope. One stream header is followed by length-prefixed
// chunk records — each carrying its own codec ID, absolute error bound, and
// payload CRC — and a trailer index that makes every chunk addressable
// without decoding its neighbors. The layout (all integers little-endian):
//
//	stream header
//	  0      4    magic "RQCE" (uint32 LE, shared with v1)
//	  4      1    envelope version = 2
//	  5      1    default codec ID
//	  6      1    precision (32|64)
//	  7      1    rank r (0..4; 0 = shape unknown, stream is 1-D)
//	  8      8*r  dims (uint64 LE each)
//	  ...    2+n  field name (uint16 LE length + bytes)
//	  ...    4    nominal chunk size in values (uint32 LE)
//
//	chunk record (repeated)
//	  +0     1    record tag = 1
//	  +1     1    codec ID
//	  +2     8    absolute error bound used for this chunk (float64 LE)
//	  +10    4    value count (uint32 LE)
//	  +14    4    payload length (uint32 LE)
//	  +18    4    CRC-32 (IEEE) of the payload
//	  +22    len  native codec payload (a 1-D chunk field)
//
//	trailer
//	  +0     1    record tag = 2
//	  +1     4    chunk count (uint32 LE)
//	  +5     24*c index entries {record offset u64, values u32,
//	              record length u32, abs bound f64}
//	  ...    8    total values (uint64 LE)
//	  ...    4    CRC-32 (IEEE) of the trailer from its tag byte
//
//	footer
//	  +0     8    trailer offset (uint64 LE, from container start)
//	  +8     4    footer magic "RQCX"
//
// Sequential readers never seek: records are self-delimiting and the
// trailer tag terminates the chunk sequence. Random-access readers seek to
// the 12-byte footer, follow the trailer offset, and jump straight to any
// chunk via its index entry.
//
// The v1 envelope (see Seal) shares the head up to the name, and the
// sequential parser reads it as a stream of one record: where the stream
// header holds the chunk size, the envelope holds its payload length, and
// the payload that follows is the one chunk — the header's codec ID, the
// shape's value count, no CRC, no trailer.

// chunkedVersion is the envelope version byte of the chunked stream format.
const chunkedVersion = 2

// footerMagic terminates a chunked container ("RQCX" little-endian).
const footerMagic uint32 = 0x58435152

// footerSize is the byte length of the fixed footer.
const footerSize = 12

// tagChunk and tagTrailer are the record tag bytes of the chunked format.
const (
	tagChunk   = 1
	tagTrailer = 2
)

const (
	// maxChunkValues / maxChunkPayload bound the per-chunk sizes a reader
	// accepts, so corrupt length fields cannot drive huge allocations.
	maxChunkValues  = 1 << 31
	maxChunkPayload = 1 << 31

	chunkHeadSize  = 22 // tag .. CRC, without the payload
	indexEntrySize = 24
)

// ErrChecksum marks a chunk or trailer whose CRC does not match its bytes.
var ErrChecksum = errors.New("codec: checksum mismatch")

// StreamHeader describes a chunked container stream.
type StreamHeader struct {
	// CodecID is the stream's default codec (individual chunks may differ).
	CodecID ID
	// Prec is the original storage precision for ratio accounting.
	Prec grid.Precision
	// Dims is the logical field shape; nil when unknown (pure stream).
	Dims []int
	// Name is the stored field name.
	Name string
	// ChunkValues is the nominal chunk size in values.
	ChunkValues int
}

// Chunk is one decoded chunk record (payload still compressed).
type Chunk struct {
	// CodecID names the backend that produced the payload.
	CodecID ID
	// AbsBound is the absolute error bound the chunk was compressed with
	// (0 when the producing mode had no single absolute bound, e.g. PWREL).
	AbsBound float64
	// Values is the number of samples the payload decodes to.
	Values int
	// Payload is the codec's native compressed payload (a 1-D field, or a
	// v1 envelope's whole field).
	Payload []byte

	crc    uint32 // the payload CRC-32 a parsed record declares (see Verify)
	sealed bool   // a v1 envelope's payload, which no CRC covers
}

// IndexEntry locates one chunk record inside a chunked container.
type IndexEntry struct {
	// Offset is the byte offset of the record tag from the container start.
	Offset int64
	// Values is the chunk's decoded sample count.
	Values int
	// RecordBytes is the full record length including tag and payload.
	RecordBytes int
	// AbsBound is the chunk's absolute error bound.
	AbsBound float64
}

// StreamIndex is the random-access directory of a chunked container.
type StreamIndex struct {
	// Header is the stream header.
	Header StreamHeader
	// Entries lists every chunk in stream order.
	Entries []IndexEntry
	// TotalValues is the decoded sample count of the whole stream.
	TotalValues int64
}

// IsChunked reports whether data begins with a chunked (v2) stream header.
func IsChunked(data []byte) bool {
	return len(data) >= 5 &&
		binary.LittleEndian.Uint32(data) == envelopeMagic &&
		data[4] == chunkedVersion
}

// WriteStreamHeader serializes h, returning the byte count written.
func WriteStreamHeader(w io.Writer, h *StreamHeader) (int64, error) {
	if len(h.Dims) > 0 { // rank 0: shape unknown
		if _, err := grid.ShapeLen(h.Dims); err != nil {
			return 0, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
	}
	if h.ChunkValues < 1 || h.ChunkValues > maxChunkValues {
		return 0, fmt.Errorf("%w: chunk size %d values", ErrCorrupt, h.ChunkValues)
	}
	b := make([]byte, 0, 8+8*len(h.Dims)+2+min(len(h.Name), maxEnvelopeName)+4)
	b = appendHead(b, chunkedVersion, h.CodecID, h.Prec, h.Dims, h.Name)
	b = binary.LittleEndian.AppendUint32(b, uint32(h.ChunkValues))
	n, err := w.Write(b)
	return int64(n), err
}

// readSpan reads the next len(span) bytes of a frame and returns a cursor
// over them: the streaming parsers read fixed-size spans and decode them as
// Open decodes an in-memory envelope. A frame cut short is ErrTruncated.
func readSpan(r io.Reader, span []byte, what string) (grid.Cursor, error) {
	if _, err := io.ReadFull(r, span); err != nil {
		return grid.Cursor{}, fmt.Errorf("%w: container ends mid-%s", ErrTruncated, what)
	}
	return grid.NewCursor(span), nil
}

// OpenRecords parses the container head of r and returns the walker over
// the records behind it. A chunked stream's header is followed by its chunk
// records; a v1 envelope's head ends in its payload length instead of a
// chunk size, and the payload is read as a stream of one record. It reads
// exactly a chunked stream, nothing past the footer; a streamed envelope
// must end its source. Parse failures wrap the typed container errors.
func OpenRecords(r io.Reader) (*Records, error) {
	var span [8]byte
	c, err := readSpan(r, span[:4], "header")
	if err != nil {
		return nil, err
	}
	if magic := c.U32(); magic != envelopeMagic {
		return nil, fmt.Errorf("%w: 0x%08x", ErrBadMagic, magic)
	}
	if c, err = readSpan(r, span[:4], "header"); err != nil {
		return nil, err
	}
	version, id, prec, rank := c.U8(), c.U8(), c.U8(), int(c.U8())
	if version != envelopeVersion && version != chunkedVersion {
		return nil, fmt.Errorf("%w: version %d, this build reads %d and %d",
			ErrUnsupportedVersion, version, envelopeVersion, chunkedVersion)
	}
	if p := grid.Precision(prec); p != grid.Float32 && p != grid.Float64 {
		return nil, fmt.Errorf("%w: precision %d", ErrCorrupt, prec)
	}
	var dims []int
	if rank != 0 || version == envelopeVersion { // rank 0: a stream of unknown shape, 1-D
		dims, _, err = grid.AppendShape(make([]int, 0, 4), rank, func() (uint64, error) {
			c, err := readSpan(r, span[:], "dims")
			return c.U64(), err
		})
		if err != nil {
			return nil, frameErr(err)
		}
	}
	if c, err = readSpan(r, span[:2], "name"); err != nil {
		return nil, err
	}
	size := 4 // what follows the name: a stream's chunk size, an envelope's payload length
	if version == envelopeVersion {
		size = 8
	}
	tail := make([]byte, int(c.U16())+size)
	if c, err = readSpan(r, tail, "name"); err != nil {
		return nil, err
	}
	rs := &Records{
		Header: StreamHeader{CodecID: ID(id), Prec: grid.Precision(prec), Dims: dims, Name: string(c.Take(len(tail) - size))},
		r:      r,
		off:    int64(8 + 8*len(dims) + 2 + len(tail)),
		sealed: -1,
	}
	if version == envelopeVersion {
		if rs.sealed = int64(c.U64()); rs.sealed < 0 {
			return nil, fmt.Errorf("%w: payload declares %d bytes", ErrTruncated, uint64(rs.sealed))
		}
		rs.Header.ChunkValues = int(rs.Header.TotalFromDims()) // one record holds the field
		return rs, nil
	}
	if rs.Header.ChunkValues = int(c.U32()); rs.Header.ChunkValues == 0 {
		return nil, fmt.Errorf("%w: zero chunk size", ErrCorrupt)
	}
	return rs, nil
}

// WriteChunk serializes one chunk record, returning the byte count written.
func WriteChunk(w io.Writer, c *Chunk) (int64, error) {
	if c.Values < 1 || c.Values > maxChunkValues {
		return 0, fmt.Errorf("%w: chunk of %d values", ErrCorrupt, c.Values)
	}
	if len(c.Payload) == 0 || len(c.Payload) > maxChunkPayload {
		return 0, fmt.Errorf("%w: chunk payload of %d bytes", ErrCorrupt, len(c.Payload))
	}
	head := append(make([]byte, 0, chunkHeadSize), tagChunk, uint8(c.CodecID))
	head = binary.LittleEndian.AppendUint64(head, math.Float64bits(c.AbsBound))
	head = binary.LittleEndian.AppendUint32(head, uint32(c.Values))
	head = binary.LittleEndian.AppendUint32(head, uint32(len(c.Payload)))
	head = binary.LittleEndian.AppendUint32(head, crc32.ChecksumIEEE(c.Payload))
	if n, err := w.Write(head); err != nil {
		return int64(n), err
	}
	n, err := w.Write(c.Payload)
	return int64(chunkHeadSize + n), err
}

// readChunk parses a chunk record after its tag byte WITHOUT checksumming
// the payload (the chunk keeps the CRC its head declares, for Verify), and
// returns it with the full record length. The payload is read by
// readPayload.
func readChunk(r io.Reader, skip *bytes.Reader, pb *bytes.Buffer) (*Chunk, int, error) {
	var span [chunkHeadSize - 1]byte
	h, err := readSpan(r, span[:], "chunk head")
	if err != nil {
		return nil, 0, err
	}
	c := &Chunk{CodecID: ID(h.U8()), AbsBound: h.F64(), Values: int(h.U32())}
	payloadLen := h.U32()
	c.crc = h.U32()
	if c.Values < 1 {
		return nil, 0, fmt.Errorf("%w: chunk declares %d values", ErrCorrupt, c.Values)
	}
	if payloadLen == 0 || payloadLen > maxChunkPayload {
		return nil, 0, fmt.Errorf("%w: chunk declares %d payload bytes", ErrCorrupt, payloadLen)
	}
	if c.Payload, err = readPayload(r, skip, pb, int64(payloadLen)); err != nil {
		return nil, 0, err
	}
	return c, chunkHeadSize + int(payloadLen), nil
}

// readPayload reads the n-byte payload of a record into pb — or, with skip
// set (it is then r itself), seeks over it and returns none.
func readPayload(r io.Reader, skip *bytes.Reader, pb *bytes.Buffer, n int64) ([]byte, error) {
	if skip != nil {
		if n > int64(skip.Len()) {
			return nil, fmt.Errorf("%w: payload declares %d bytes, %d remain", ErrTruncated, n, skip.Len())
		}
		_, _ = skip.Seek(n, io.SeekCurrent) // in range: cannot fail
		return nil, nil
	}
	// Grow the payload with the bytes actually read rather than trusting the
	// declared length: a corrupt length field must not drive a huge
	// allocation from a tiny input.
	pb.Reset()
	if n < 1<<20 {
		pb.Grow(int(n))
	}
	if _, err := io.CopyN(pb, r, n); err != nil {
		return nil, fmt.Errorf("%w: container ends mid-payload", ErrTruncated)
	}
	return pb.Bytes(), nil
}

// Verify checks a parsed chunk's payload against the CRC its record
// declared. A v1 envelope's payload has no CRC to check.
func (c *Chunk) Verify() error {
	if c.sealed {
		return nil
	}
	if got := crc32.ChecksumIEEE(c.Payload); got != c.crc {
		return fmt.Errorf("%w: chunk payload CRC 0x%08x, want 0x%08x", ErrChecksum, got, c.crc)
	}
	return nil
}

// WriteTrailer serializes the trailer record and footer. trailerOffset is
// the byte offset the trailer tag lands at (i.e. the bytes written so far).
func WriteTrailer(w io.Writer, entries []IndexEntry, totalValues, trailerOffset int64) (int64, error) {
	b := make([]byte, 0, 1+4+indexEntrySize*len(entries)+8+4+footerSize)
	b = binary.LittleEndian.AppendUint32(append(b, tagTrailer), uint32(len(entries)))
	for _, e := range entries {
		b = binary.LittleEndian.AppendUint64(b, uint64(e.Offset))
		b = binary.LittleEndian.AppendUint32(b, uint32(e.Values))
		b = binary.LittleEndian.AppendUint32(b, uint32(e.RecordBytes))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(e.AbsBound))
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(totalValues))
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
	b = binary.LittleEndian.AppendUint64(b, uint64(trailerOffset))
	b = binary.LittleEndian.AppendUint32(b, footerMagic)
	n, err := w.Write(b)
	return int64(n), err
}

// readTrailer parses a trailer after its tag byte (CRC included, footer
// excluded).
func readTrailer(r io.Reader) ([]IndexEntry, int64, error) {
	crc := crc32.NewIEEE()
	crc.Write([]byte{tagTrailer})
	tr := io.TeeReader(r, crc)
	var span [indexEntrySize]byte
	c, err := readSpan(tr, span[:4], "trailer")
	if err != nil {
		return nil, 0, err
	}
	// Cap the preallocation: a corrupt count must not drive a huge
	// allocation from a tiny input. Honest containers beyond the cap still
	// parse — the slice just grows with the bytes actually read.
	count := c.U32()
	entries := make([]IndexEntry, 0, min(count, 1<<16))
	for range count {
		if c, err = readSpan(tr, span[:], "index"); err != nil {
			return nil, 0, err
		}
		entries = append(entries, IndexEntry{
			Offset:      int64(c.U64()),
			Values:      int(c.U32()),
			RecordBytes: int(c.U32()),
			AbsBound:    c.F64(),
		})
	}
	if c, err = readSpan(tr, span[:8], "trailer"); err != nil {
		return nil, 0, err
	}
	totalValues, want := c.U64(), crc.Sum32()
	if c, err = readSpan(r, span[:4], "trailer"); err != nil {
		return nil, 0, err
	}
	if got := c.U32(); got != want {
		return nil, 0, fmt.Errorf("%w: trailer CRC 0x%08x, want 0x%08x", ErrChecksum, got, want)
	}
	return entries, int64(totalValues), nil
}

// readFooter parses the 12-byte footer after the trailer CRC, returning the
// trailer offset it declares.
func readFooter(r io.Reader) (int64, error) {
	var span [footerSize]byte
	c, err := readSpan(r, span[:], "footer")
	if err != nil {
		return 0, err
	}
	off, magic := c.U64(), c.U32()
	if magic != footerMagic {
		return 0, fmt.Errorf("%w: footer magic 0x%08x", ErrCorrupt, magic)
	}
	return int64(off), nil
}

// Records is the one sequential parser of both container grammars: every
// reader that consumes a container front to back — Open and Inspect, the
// serial Decompress, the concurrent stream.Reader — is a loop over Next. A
// chunked stream yields its chunk records; a v1 envelope yields one record,
// its payload. It owns the record tags, the head layout, the allocation
// guards, the byte offset of every record and the end-of-stream
// reconciliation.
type Records struct {
	// Header is the stream header the records follow (a v1 envelope's head,
	// its one record holding the whole field).
	Header StreamHeader

	r io.Reader
	// whole is r when the source is a complete in-memory container: the
	// container must then end at its last byte, and payloads are seeked over
	// instead of read — Inspect stays O(records), not O(bytes) — or, when
	// data (the container) is set, sliced from it in place.
	whole *bytes.Reader
	data  []byte
	// sealed is a v1 envelope's payload length, -1 for a chunked stream.
	sealed int64

	tag   [1]byte      // read buffer (a field, so reading a tag allocates nothing)
	off   int64        // container offset of the next record tag
	seen  []IndexEntry // every chunk record walked so far, as the trailer must index it
	total int64        // values in seen
}

// openContainer is OpenRecords over a complete in-memory container; heads
// asks for record heads only, and otherwise every payload is a subslice of
// data (no copy).
func openContainer(data []byte, heads bool) (*Records, error) {
	br := bytes.NewReader(data)
	rs, err := OpenRecords(br)
	if err != nil {
		return nil, err
	}
	rs.whole = br
	if !heads {
		rs.data = data
	}
	return rs, nil
}

// Next returns the next record with its payload CRC NOT yet checked: Verify
// is the caller's, so a concurrent reader can run it off the parsing
// goroutine. Over a chunked stream it returns io.EOF only after a trailer
// and footer that agree with the walk entry for entry: every index entry's
// offset, value count, record length and bound equal to what the record at
// that position declared, the total equal to the sum, and the footer's
// trailer offset equal to where the trailer tag actually stood. All copies
// of a chunk's geometry and bound must agree or the container is corrupt.
// Over a v1 envelope it returns the payload as one record — the header's
// codec, the shape's value count, no CRC — and then io.EOF. An oversized or
// trailed envelope is refused before its record is returned.
//
// The payload is read into pb, so a caller can recycle payload buffers: the
// chunk's Payload aliases pb until pb is next written. Over an in-memory
// container payloads are seeked over or sliced in place, and pb may be nil.
func (rs *Records) Next(pb *bytes.Buffer) (*Chunk, error) {
	if rs.sealed >= 0 {
		if len(rs.seen) != 0 {
			return nil, io.EOF
		}
		// Streamed, the payload is capped like a chunk record's; in memory it
		// need only fit the input. Past both it is corrupt for every reader.
		if rs.sealed > maxChunkPayload && (rs.whole == nil || rs.sealed > int64(rs.whole.Len())) {
			return nil, fmt.Errorf("%w: envelope declares %d payload bytes, a streamed record holds at most %d",
				ErrCorrupt, rs.sealed, maxChunkPayload)
		}
		payload, err := readPayload(rs.r, rs.whole, pb, rs.sealed)
		if err != nil {
			return nil, err
		}
		if err := rs.ended(); err != io.EOF {
			return nil, err
		}
		c := &Chunk{CodecID: rs.Header.CodecID, Values: rs.Header.ChunkValues, Payload: payload, sealed: true}
		rs.add(c, 0, int(rs.sealed))
		return c, nil
	}
	if _, err := io.ReadFull(rs.r, rs.tag[:]); err != nil {
		return nil, fmt.Errorf("%w: container ends without a trailer", ErrTruncated)
	}
	switch rs.tag[0] {
	case tagChunk:
		c, n, err := readChunk(rs.r, rs.whole, pb)
		if err != nil {
			return nil, err
		}
		rs.add(c, chunkHeadSize, n)
		return c, nil
	case tagTrailer:
		return nil, rs.reconcile()
	}
	return nil, fmt.Errorf("%w: record tag %d", ErrCorrupt, rs.tag[0])
}

// add walks past a parsed record of n bytes whose payload starts head bytes
// in, slicing the payload from an in-memory container.
func (rs *Records) add(c *Chunk, head, n int) {
	if rs.data != nil {
		c.Payload = rs.data[rs.off+int64(head) : rs.off+int64(n) : rs.off+int64(n)]
	}
	rs.seen = append(rs.seen, IndexEntry{Offset: rs.off, Values: c.Values, RecordBytes: n, AbsBound: c.AbsBound})
	rs.off += int64(n)
	rs.total += int64(c.Values)
}

// ended is the walk's io.EOF once the last record is read: an in-memory
// container must end there, and so must a streamed envelope's source (one
// more byte is read to see). A streamed chunked container is not read past
// its footer.
func (rs *Records) ended() error {
	if rs.whole != nil && rs.whole.Len() != 0 {
		return fmt.Errorf("%w: %d trailing bytes after the container", ErrCorrupt, rs.whole.Len())
	}
	if rs.whole == nil && rs.sealed >= 0 {
		if _, err := io.ReadFull(rs.r, rs.tag[:]); err == nil {
			return fmt.Errorf("%w: trailing bytes after the envelope's payload", ErrCorrupt)
		} else if err != io.EOF {
			return err
		}
	}
	return io.EOF
}

// reconcile parses the trailer and footer and holds them against the walk,
// returning io.EOF when they agree.
func (rs *Records) reconcile() error {
	entries, totalValues, err := readTrailer(rs.r)
	if err != nil {
		return err
	}
	trailerOffset, err := readFooter(rs.r)
	if err != nil {
		return err
	}
	if len(entries) != len(rs.seen) || totalValues != rs.total {
		return fmt.Errorf("%w: trailer indexes %d chunks / %d values, stream has %d / %d",
			ErrCorrupt, len(entries), totalValues, len(rs.seen), rs.total)
	}
	for i, e := range entries {
		if !e.equal(rs.seen[i]) {
			return fmt.Errorf("%w: chunk %d: trailer indexes %+v, stream has %+v", ErrCorrupt, i, e, rs.seen[i])
		}
	}
	if trailerOffset != rs.off {
		return fmt.Errorf("%w: footer places the trailer at offset %d, it stands at %d",
			ErrCorrupt, trailerOffset, rs.off)
	}
	return rs.ended()
}

// equal compares two index entries field for field, the bound by its bit
// pattern (what the wire carries), so a NaN bound still equals itself.
func (e IndexEntry) equal(o IndexEntry) bool {
	return e.Offset == o.Offset && e.Values == o.Values && e.RecordBytes == o.RecordBytes &&
		math.Float64bits(e.AbsBound) == math.Float64bits(o.AbsBound)
}

// DecodeChunk decompresses one chunk record's payload through the codec its
// ID names and returns its samples in a fresh slice.
func DecodeChunk(c *Chunk) ([]float64, error) { return DecodeChunkInto(nil, c) }

// DecodeChunkInto is DecodeChunk decoding into dst: when cap(dst) holds the
// record's c.Values samples, the returned values are dst[:c.Values] and the
// decode allocates no value slice. dst's prior contents do not matter. The
// decoder never writes past dst[c.Values-1], whatever the payload declares.
func DecodeChunkInto(dst []float64, c *Chunk) ([]float64, error) {
	backend, err := ByID(c.CodecID)
	if err != nil {
		return nil, err
	}
	if cap(dst) >= c.Values {
		dst = dst[:0:c.Values]
	}
	f, err := backend.Decompress(dst, c.Payload)
	if err != nil {
		return nil, err
	}
	if f.Len() != c.Values {
		return nil, fmt.Errorf("%w: chunk decodes to %d values, record declares %d",
			ErrCorrupt, f.Len(), c.Values)
	}
	return f.Data, nil
}

// DecodeChunkAt is ReadChunkAt then DecodeChunkInto, with the payload read
// into a pooled buffer that is recycled before it returns: the random-access
// decode keeps nothing but the values.
func DecodeChunkAt(rs io.ReadSeeker, e IndexEntry, dst []float64) ([]float64, error) {
	pb := GetPayload()
	defer PutPayload(pb)
	c, err := readChunkAt(rs, e, pb)
	if err != nil {
		return nil, err
	}
	return DecodeChunkInto(dst, c)
}

// valuesPool recycles decoded-chunk buffers (see GetValues).
var valuesPool = sync.Pool{New: func() any { return new([]float64) }}

// GetValues takes a decode destination from the shared chunk-buffer pool.
// Pass *b to DecodeChunkInto or DecodeChunkAt, store the result back in *b
// (a chunk larger than the buffer comes back in a fresh slice the buffer
// then keeps), and PutValues(b) once nothing reads those values any more.
func GetValues() *[]float64 { return valuesPool.Get().(*[]float64) }

// PutValues returns a GetValues buffer to the pool.
func PutValues(b *[]float64) {
	poison.Floats(*b)
	valuesPool.Put(b)
}

// payloadPool recycles chunk payload buffers (see GetPayload).
var payloadPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// GetPayload takes a buffer from the shared chunk-payload pool, for
// Records.Next to read a record's payload into. PutPayload(pb) once nothing
// reads the chunk's Payload any more.
func GetPayload() *bytes.Buffer { return payloadPool.Get().(*bytes.Buffer) }

// PutPayload returns a GetPayload buffer to the pool.
func PutPayload(pb *bytes.Buffer) {
	poison.Bytes(pb.Bytes())
	payloadPool.Put(pb)
}

// AssembleField shapes decoded stream samples into a field: the header's
// dims when their product matches the sample count, 1-D otherwise.
func AssembleField(h *StreamHeader, vals []float64) (*grid.Field, error) {
	if len(vals) == 0 {
		return nil, fmt.Errorf("%w: stream holds no values", ErrCorrupt)
	}
	prec := h.Prec
	if prec != grid.Float32 && prec != grid.Float64 {
		prec = grid.Float64
	}
	if h.TotalFromDims() == int64(len(vals)) {
		return grid.FromData(h.Name, prec, vals, h.Dims...)
	}
	return grid.FromData(h.Name, prec, vals, len(vals))
}

// ValueBuffer returns an empty slice to append the stream's decoded values
// to, with room for what the header's shape implies — up to
// grid.MaxPrealloc: a corrupt dimension must not drive a huge allocation
// from a tiny input, and an honest stream beyond the cap just grows with the
// values decoded.
func (h *StreamHeader) ValueBuffer() []float64 {
	return make([]float64, 0, max(0, min(h.TotalFromDims(), grid.MaxPrealloc)))
}

// TotalFromDims returns the sample count the header's shape implies, or 0
// when the shape is unknown (rank 0).
func (h *StreamHeader) TotalFromDims() int64 {
	n, _ := grid.ShapeLen(h.Dims)
	return int64(n)
}

// OpenChunked is OpenRecords for a reader that needs a chunked stream, as
// every indexed reader does: a v1 envelope has no index, and is refused
// with ErrUnsupportedVersion like any version this build does not index.
func OpenChunked(r io.Reader) (*Records, error) {
	recs, err := OpenRecords(r)
	if err == nil && recs.sealed >= 0 {
		return nil, fmt.Errorf("%w: a version %d envelope has no index, chunked streams are version %d",
			ErrUnsupportedVersion, envelopeVersion, chunkedVersion)
	}
	return recs, err
}

// LoadIndex reads the trailer index of a chunked container through its
// footer: seek to the end, follow the trailer offset, parse the index. This
// is the random-access entry point — with the index, ReadChunkAt decodes
// any chunk without touching the rest of the stream. The index is admitted
// only if it accounts for every byte of the container: the entries tile
// [header end, trailer offset) without gap or overlap, their value counts
// sum to the declared total, and the trailer ends where the footer begins.
func LoadIndex(rs io.ReadSeeker) (*StreamIndex, error) {
	if _, err := rs.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	recs, err := OpenChunked(rs)
	if err != nil {
		return nil, err
	}
	headerEnd := recs.off
	end, err := rs.Seek(0, io.SeekEnd)
	if err != nil {
		return nil, err
	}
	if end < footerSize {
		return nil, fmt.Errorf("%w: %d bytes, need a %d-byte footer", ErrTruncated, end, footerSize)
	}
	if _, err := rs.Seek(end-footerSize, io.SeekStart); err != nil {
		return nil, err
	}
	trailerOffset, err := readFooter(rs)
	if err != nil {
		return nil, err
	}
	if trailerOffset < headerEnd || trailerOffset >= end-footerSize {
		return nil, fmt.Errorf("%w: trailer offset %d outside container", ErrCorrupt, trailerOffset)
	}
	if _, err := rs.Seek(trailerOffset, io.SeekStart); err != nil {
		return nil, err
	}
	var tag [1]byte
	if _, err := io.ReadFull(rs, tag[:]); err != nil {
		return nil, fmt.Errorf("%w: trailer tag", ErrTruncated)
	}
	if tag[0] != tagTrailer {
		return nil, fmt.Errorf("%w: trailer offset points at tag %d", ErrCorrupt, tag[0])
	}
	entries, totalValues, err := readTrailer(rs)
	if err != nil {
		return nil, err
	}
	if pos, err := rs.Seek(0, io.SeekCurrent); err != nil {
		return nil, err
	} else if pos != end-footerSize {
		return nil, fmt.Errorf("%w: trailer ends at offset %d, footer starts at %d", ErrCorrupt, pos, end-footerSize)
	}
	next, sum := headerEnd, int64(0)
	for i, e := range entries {
		if e.Offset != next || e.RecordBytes <= chunkHeadSize || e.Values < 1 {
			return nil, fmt.Errorf("%w: index entry %d (%+v) does not continue the records at offset %d",
				ErrCorrupt, i, e, next)
		}
		next += int64(e.RecordBytes)
		sum += int64(e.Values)
	}
	if next != trailerOffset || sum != totalValues {
		return nil, fmt.Errorf("%w: index covers %d values up to offset %d, trailer declares %d values at offset %d",
			ErrCorrupt, sum, next, totalValues, trailerOffset)
	}
	return &StreamIndex{Header: recs.Header, Entries: entries, TotalValues: totalValues}, nil
}

// ReadChunkAt seeks to one indexed chunk record and parses it: payload CRC
// verified, and the record's own head held against the entry that located it
// — value count, record length and bound must match, so a caller may size
// and slice by the entry. Pair with DecodeChunk for random-access
// decompression, or call DecodeChunkAt for both over a pooled payload.
func ReadChunkAt(rs io.ReadSeeker, e IndexEntry) (*Chunk, error) {
	return readChunkAt(rs, e, new(bytes.Buffer))
}

// VerifyChunkAt is ReadChunkAt for a caller that wants the verdict alone
// (the store's shallow verification): the same checks over a pooled payload
// buffer, nothing kept.
func VerifyChunkAt(rs io.ReadSeeker, e IndexEntry) error {
	pb := GetPayload()
	defer PutPayload(pb)
	_, err := readChunkAt(rs, e, pb)
	return err
}

func readChunkAt(rs io.ReadSeeker, e IndexEntry, pb *bytes.Buffer) (*Chunk, error) {
	if _, err := rs.Seek(e.Offset, io.SeekStart); err != nil {
		return nil, err
	}
	var tag [1]byte
	if _, err := io.ReadFull(rs, tag[:]); err != nil {
		return nil, fmt.Errorf("%w: chunk tag", ErrTruncated)
	}
	if tag[0] != tagChunk {
		return nil, fmt.Errorf("%w: index entry points at tag %d", ErrCorrupt, tag[0])
	}
	c, n, err := readChunk(rs, nil, pb)
	if err != nil {
		return nil, err
	}
	// CRC before the comparison: a damaged length field reads as the
	// checksum failure a sequential reader reports for the same bytes.
	if err := c.Verify(); err != nil {
		return nil, err
	}
	if head := (IndexEntry{Offset: e.Offset, Values: c.Values, RecordBytes: n, AbsBound: c.AbsBound}); !head.equal(e) {
		return nil, fmt.Errorf("%w: record declares %+v, its index entry %+v", ErrCorrupt, head, e)
	}
	return c, nil
}
