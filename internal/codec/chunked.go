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
	// Payload is the codec's native compressed payload (a 1-D field).
	Payload []byte
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

// readStreamHeader parses a stream header, returning it and the byte count
// consumed. Parse failures wrap the typed container errors.
func readStreamHeader(r io.Reader) (*StreamHeader, int64, error) {
	var span [8]byte
	c, err := readSpan(r, span[:], "header")
	if err != nil {
		return nil, 0, err
	}
	magic, version, id, prec, rank := c.U32(), c.U8(), c.U8(), c.U8(), int(c.U8())
	if magic != envelopeMagic {
		return nil, 0, fmt.Errorf("%w: 0x%08x", ErrBadMagic, magic)
	}
	if version != chunkedVersion {
		return nil, 0, fmt.Errorf("%w: version %d, chunked streams are version %d",
			ErrUnsupportedVersion, version, chunkedVersion)
	}
	if p := grid.Precision(prec); p != grid.Float32 && p != grid.Float64 {
		return nil, 0, fmt.Errorf("%w: precision %d", ErrCorrupt, prec)
	}
	var dims []int
	if rank != 0 { // rank 0: shape unknown, the stream is 1-D
		dims, _, err = grid.AppendShape(make([]int, 0, 4), rank, func() (uint64, error) {
			c, err := readSpan(r, span[:], "dims")
			return c.U64(), err
		})
		if err != nil {
			return nil, 0, frameErr(err)
		}
	}
	if c, err = readSpan(r, span[:2], "name"); err != nil {
		return nil, 0, err
	}
	tail := make([]byte, int(c.U16())+4) // the name, then the chunk size
	if c, err = readSpan(r, tail, "name"); err != nil {
		return nil, 0, err
	}
	name := string(c.Take(len(tail) - 4))
	chunkValues := c.U32()
	if chunkValues == 0 {
		return nil, 0, fmt.Errorf("%w: zero chunk size", ErrCorrupt)
	}
	return &StreamHeader{
		CodecID:     ID(id),
		Prec:        grid.Precision(prec),
		Dims:        dims,
		Name:        name,
		ChunkValues: int(chunkValues),
	}, int64(8 + 8*len(dims) + 2 + len(tail)), nil
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
// the payload, returning the CRC its head declares and the full record
// length. The payload is read into pb — or, with skip set (it is then r
// itself), seeked over, and the chunk comes back without one.
func readChunk(r io.Reader, skip *bytes.Reader, pb *bytes.Buffer) (*Chunk, uint32, int, error) {
	var span [chunkHeadSize - 1]byte
	h, err := readSpan(r, span[:], "chunk head")
	if err != nil {
		return nil, 0, 0, err
	}
	c := &Chunk{CodecID: ID(h.U8()), AbsBound: h.F64(), Values: int(h.U32())}
	payloadLen, wantCRC := h.U32(), h.U32()
	if c.Values < 1 {
		return nil, 0, 0, fmt.Errorf("%w: chunk declares %d values", ErrCorrupt, c.Values)
	}
	if payloadLen == 0 || payloadLen > maxChunkPayload {
		return nil, 0, 0, fmt.Errorf("%w: chunk declares %d payload bytes", ErrCorrupt, payloadLen)
	}
	recordBytes := chunkHeadSize + int(payloadLen)
	if skip != nil {
		if int64(payloadLen) > int64(skip.Len()) {
			return nil, 0, 0, fmt.Errorf("%w: chunk payload declares %d bytes, %d remain",
				ErrTruncated, payloadLen, skip.Len())
		}
		_, _ = skip.Seek(int64(payloadLen), io.SeekCurrent) // in range: cannot fail
		return c, wantCRC, recordBytes, nil
	}
	// Grow the payload with the bytes actually read rather than trusting the
	// declared length: a corrupt length field must not drive a huge
	// allocation from a tiny input.
	pb.Reset()
	if payloadLen < 1<<20 {
		pb.Grow(int(payloadLen))
	}
	if _, err := io.CopyN(pb, r, int64(payloadLen)); err != nil {
		return nil, 0, 0, fmt.Errorf("%w: chunk record ends mid-payload", ErrTruncated)
	}
	c.Payload = pb.Bytes()
	return c, wantCRC, recordBytes, nil
}

// VerifyChunk checks a chunk payload against the CRC its record declared.
func VerifyChunk(c *Chunk, wantCRC uint32) error {
	if got := crc32.ChecksumIEEE(c.Payload); got != wantCRC {
		return fmt.Errorf("%w: chunk payload CRC 0x%08x, want 0x%08x", ErrChecksum, got, wantCRC)
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

// Records is the one sequential parser of the chunked grammar: every reader
// that consumes a container front to back — Inspect, the serial
// DecompressChunked, the concurrent stream.Reader — is a loop over Next. It
// owns the record tags, the head layout, the allocation guards, the byte
// offset of every record and the end-of-stream reconciliation.
type Records struct {
	// Header is the stream header the records follow.
	Header StreamHeader

	r io.Reader
	// whole is r when the source is a complete in-memory container: the
	// footer must then be its last byte. skip is r when, on top of that,
	// payloads are to be seeked over instead of read (Inspect stays
	// O(records), not O(bytes)).
	whole, skip *bytes.Reader

	tag   [1]byte      // read buffer (a field, so reading a tag allocates nothing)
	off   int64        // container offset of the next record tag
	seen  []IndexEntry // every chunk record walked so far, as the trailer must index it
	total int64        // values in seen
}

// OpenRecords parses the stream header of r and returns the walker over the
// records behind it. It reads exactly the container: nothing past the footer
// is consumed.
func OpenRecords(r io.Reader) (*Records, error) {
	h, n, err := readStreamHeader(r)
	if err != nil {
		return nil, err
	}
	return &Records{Header: *h, r: r, off: n}, nil
}

// openContainer is OpenRecords over a complete in-memory container; heads
// asks for record heads only.
func openContainer(data []byte, heads bool) (*Records, error) {
	br := bytes.NewReader(data)
	rs, err := OpenRecords(br)
	if err != nil {
		return nil, err
	}
	if rs.whole = br; heads {
		rs.skip = br
	}
	return rs, nil
}

// Next returns the next chunk record and the payload CRC its head declares
// — NOT yet checked: VerifyChunk is the caller's, so a concurrent reader can
// run it off the parsing goroutine. It returns io.EOF only after a trailer
// and footer that agree with the walk entry for entry: every index entry's
// offset, value count, record length and bound equal to what the record at
// that position declared, the total equal to the sum, and the footer's
// trailer offset equal to where the trailer tag actually stood. All copies
// of a chunk's geometry and bound must agree or the container is corrupt.
func (rs *Records) Next() (*Chunk, uint32, error) {
	if _, err := io.ReadFull(rs.r, rs.tag[:]); err != nil {
		return nil, 0, fmt.Errorf("%w: container ends without a trailer", ErrTruncated)
	}
	switch rs.tag[0] {
	case tagChunk:
		c, crc, n, err := readChunk(rs.r, rs.skip, new(bytes.Buffer))
		if err != nil {
			return nil, 0, err
		}
		rs.seen = append(rs.seen, IndexEntry{Offset: rs.off, Values: c.Values, RecordBytes: n, AbsBound: c.AbsBound})
		rs.off += int64(n)
		rs.total += int64(c.Values)
		return c, crc, nil
	case tagTrailer:
		if err := rs.reconcile(); err != nil {
			return nil, 0, err
		}
		return nil, 0, io.EOF
	}
	return nil, 0, fmt.Errorf("%w: record tag %d", ErrCorrupt, rs.tag[0])
}

// reconcile parses the trailer and footer and holds them against the walk.
func (rs *Records) reconcile() error {
	entries, totalValues, err := readTrailer(rs.r)
	if err != nil {
		return err
	}
	trailerOffset, err := readFooter(rs.r)
	if err != nil {
		return err
	}
	if rs.whole != nil && rs.whole.Len() != 0 {
		return fmt.Errorf("%w: %d trailing bytes after footer", ErrCorrupt, rs.whole.Len())
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
	return nil
}

// equal compares two index entries field for field, the bound by its bit
// pattern (what the wire carries), so a NaN bound still equals itself.
func (e IndexEntry) equal(o IndexEntry) bool {
	return e.Offset == o.Offset && e.Values == o.Values && e.RecordBytes == o.RecordBytes &&
		math.Float64bits(e.AbsBound) == math.Float64bits(o.AbsBound)
}

// openChunked walks a chunked container's structure — header, record
// heads, trailer, footer — without reading or checksumming payloads, and
// returns its Info. The returned payload is the whole container (chunked
// streams have no single payload; DecompressChunked consumes them).
func openChunked(data []byte) (*Info, []byte, error) {
	rs, err := openContainer(data, true)
	if err != nil {
		return nil, nil, err
	}
	for {
		if _, _, err = rs.Next(); err != nil {
			break
		}
	}
	if err != io.EOF {
		return nil, nil, err
	}
	h := &rs.Header
	info := &Info{
		CodecID:     h.CodecID,
		Version:     chunkedVersion,
		Chunked:     true,
		Chunks:      len(rs.seen),
		ChunkValues: h.ChunkValues,
		TotalValues: rs.total,
		FieldName:   h.Name,
		Prec:        h.Prec,
		Dims:        h.Dims,
	}
	for _, e := range rs.seen {
		info.PayloadBytes += e.RecordBytes - chunkHeadSize
	}
	if c, err := ByID(h.CodecID); err == nil {
		info.CodecName = c.Name()
	}
	return info, data, nil
}

// DecompressChunked reconstructs a field from a chunked container,
// sequentially routing every chunk to its backend by codec ID.
// (internal/stream provides the concurrent pipeline over the same walker.)
func DecompressChunked(data []byte) (*grid.Field, error) {
	rs, err := openContainer(data, false)
	if err != nil {
		return nil, err
	}
	vals := rs.Header.ValueBuffer()
	for {
		c, crc, err := rs.Next()
		if err == io.EOF {
			return AssembleField(&rs.Header, vals)
		}
		if err == nil {
			err = VerifyChunk(c, crc)
		}
		if err != nil {
			return nil, err
		}
		chunkVals, err := DecodeChunk(c)
		if err != nil {
			return nil, err
		}
		vals = append(vals, chunkVals...)
	}
}

// DecodeChunk decompresses one chunk record's payload through the codec its
// ID names and returns its samples.
func DecodeChunk(c *Chunk) ([]float64, error) {
	backend, err := ByID(c.CodecID)
	if err != nil {
		return nil, err
	}
	f, err := backend.Decompress(c.Payload)
	if err != nil {
		return nil, err
	}
	if f.Len() != c.Values {
		return nil, fmt.Errorf("%w: chunk decodes to %d values, record declares %d",
			ErrCorrupt, f.Len(), c.Values)
	}
	return f.Data, nil
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
	h, headerEnd, err := readStreamHeader(rs)
	if err != nil {
		return nil, err
	}
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
	return &StreamIndex{Header: *h, Entries: entries, TotalValues: totalValues}, nil
}

// ReadChunkAt seeks to one indexed chunk record and parses it: payload CRC
// verified, and the record's own head held against the entry that located it
// — value count, record length and bound must match, so a caller may size
// and slice by the entry. Pair with DecodeChunk for random-access
// decompression.
func ReadChunkAt(rs io.ReadSeeker, e IndexEntry) (*Chunk, error) {
	return readChunkAt(rs, e, new(bytes.Buffer))
}

// VerifyChunkAt is ReadChunkAt for a caller that wants the verdict alone
// (the store's shallow verification): the same checks over a pooled payload
// buffer, nothing kept.
func VerifyChunkAt(rs io.ReadSeeker, e IndexEntry) error {
	pb := payloadPool.Get().(*bytes.Buffer)
	defer payloadPool.Put(pb)
	_, err := readChunkAt(rs, e, pb)
	return err
}

var payloadPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

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
	c, crc, n, err := readChunk(rs, nil, pb)
	if err != nil {
		return nil, err
	}
	// CRC before the comparison: a damaged length field reads as the
	// checksum failure a sequential reader reports for the same bytes.
	if err := VerifyChunk(c, crc); err != nil {
		return nil, err
	}
	if head := (IndexEntry{Offset: e.Offset, Values: c.Values, RecordBytes: n, AbsBound: c.AbsBound}); !head.equal(e) {
		return nil, fmt.Errorf("%w: record declares %+v, its index entry %+v", ErrCorrupt, head, e)
	}
	return c, nil
}
