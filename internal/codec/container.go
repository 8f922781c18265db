package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"rqm/internal/grid"
)

// Typed container errors. Callers match them with errors.Is; every parse
// failure wraps exactly one of these.
var (
	// ErrTruncated marks a container shorter than its header or payload
	// declares.
	ErrTruncated = errors.New("codec: truncated container")
	// ErrBadMagic marks data that is not any known container format.
	ErrBadMagic = errors.New("codec: bad container magic")
	// ErrUnsupportedVersion marks an envelope version this build cannot read.
	ErrUnsupportedVersion = errors.New("codec: unsupported envelope version")
	// ErrUnknownCodec marks an envelope whose codec ID names no codec.
	ErrUnknownCodec = errors.New("codec: unknown codec")
	// ErrCorrupt marks a structurally invalid header (bad rank, dimension,
	// or length field), or a native payload its codec cannot decode.
	ErrCorrupt = errors.New("codec: corrupt container header")
)

// envelopeMagic is the little-endian magic of the unified envelope ("RQCE",
// ratio-quality codec envelope).
const envelopeMagic uint32 = 0x52514345

// envelopeVersion is the current envelope layout version.
const envelopeVersion = 1

// maxEnvelopeName bounds the stored field name.
const maxEnvelopeName = 65535

// Info describes a container without decoding its payload.
type Info struct {
	// CodecID identifies the backend the payload belongs to.
	CodecID ID
	// CodecName is the codec's name ("" when the ID names no codec).
	CodecName string
	// Version is the envelope version.
	Version uint8
	// Chunked reports a v2 chunked stream container.
	Chunked bool
	// Chunks counts the chunk records (chunked containers only).
	Chunks int
	// ChunkValues is the nominal chunk size in values (chunked only).
	ChunkValues int
	// TotalValues is the stream's decoded sample count (chunked only).
	TotalValues int64
	// FieldName is the stored field name.
	FieldName string
	// Prec is the original storage precision.
	Prec grid.Precision
	// Dims is the field shape.
	Dims []int
	// PayloadBytes is the native payload size inside the envelope (for
	// chunked containers the sum of the chunk payloads).
	PayloadBytes int
}

// Seal wraps a codec's native payload in the self-describing envelope:
//
//	offset  size      field
//	0       4         magic "RQCE" (uint32 LE)
//	4       1         envelope version
//	5       1         codec ID
//	6       1         precision
//	7       1         rank r (1..4)
//	8       8*r       dims (uint64 LE each)
//	...     2+len     field name (uint16 LE length + bytes)
//	...     8         payload length (uint64 LE)
//	...     len       native codec payload
func Seal(id ID, f *grid.Field, payload []byte) ([]byte, error) {
	if f == nil || f.Rank() < 1 || f.Rank() > 4 {
		return nil, fmt.Errorf("%w: field rank outside 1..4", ErrCorrupt)
	}
	name := []byte(f.Name)
	if len(name) > maxEnvelopeName {
		name = name[:maxEnvelopeName]
	}
	var buf bytes.Buffer
	buf.Grow(len(payload) + 64 + len(name))
	w := func(v interface{}) { _ = binary.Write(&buf, binary.LittleEndian, v) }
	w(envelopeMagic)
	w(uint8(envelopeVersion))
	w(uint8(id))
	w(uint8(f.Prec))
	w(uint8(f.Rank()))
	for _, d := range f.Dims {
		w(uint64(d))
	}
	w(uint16(len(name)))
	buf.Write(name)
	w(uint64(len(payload)))
	buf.Write(payload)
	return buf.Bytes(), nil
}

// Open inspects a container, returning its routing info and the native
// payload. It accepts the unified envelope (v1) and the chunked stream (v2,
// for which the "payload" is the whole container — see DecompressChunked).
// A bare native payload (prediction "RQMC", transform "RQZF") is not a
// container: nothing writes one outside an envelope, and it fails with
// ErrBadMagic like any other unknown magic.
func Open(data []byte) (*Info, []byte, error) {
	if len(data) < 4 {
		return nil, nil, fmt.Errorf("%w: %d bytes, need at least a 4-byte magic", ErrTruncated, len(data))
	}
	if magic := binary.LittleEndian.Uint32(data); magic != envelopeMagic {
		return nil, nil, fmt.Errorf("%w: 0x%08x", ErrBadMagic, magic)
	}
	r := bytes.NewReader(data[4:])
	var version, id, prec, rank uint8
	if err := readLE(r, &version, &id, &prec, &rank); err != nil {
		return nil, nil, err
	}
	if version == chunkedVersion {
		return openChunked(data)
	}
	if version != envelopeVersion {
		return nil, nil, fmt.Errorf("%w: version %d, this build reads %d and %d",
			ErrUnsupportedVersion, version, envelopeVersion, chunkedVersion)
	}
	dims, err := readDims(r, rank, 1)
	if err != nil {
		return nil, nil, err
	}
	name, err := readName(r)
	if err != nil {
		return nil, nil, err
	}
	var payloadLen uint64
	if err := readLE(r, &payloadLen); err != nil {
		return nil, nil, err
	}
	if payloadLen > uint64(r.Len()) {
		return nil, nil, fmt.Errorf("%w: payload declares %d bytes, %d remain",
			ErrTruncated, payloadLen, r.Len())
	}
	if uint64(r.Len()) > payloadLen {
		return nil, nil, fmt.Errorf("%w: %d trailing bytes after payload",
			ErrCorrupt, uint64(r.Len())-payloadLen)
	}
	payload := data[len(data)-int(payloadLen):]
	info := &Info{
		CodecID:      ID(id),
		Version:      version,
		FieldName:    name,
		Prec:         grid.Precision(prec),
		Dims:         dims,
		PayloadBytes: int(payloadLen),
	}
	if c, err := ByID(info.CodecID); err == nil {
		info.CodecName = c.Name()
	}
	return info, payload, nil
}

// Decompress routes any container — enveloped or chunked — to its backend
// by inspection and reconstructs the field.
func Decompress(data []byte) (*grid.Field, error) {
	// Chunked containers route on their 5-byte prefix: DecompressChunked
	// validates the full structure itself, so a prior Open walk would parse
	// everything twice.
	if IsChunked(data) {
		return DecompressChunked(data)
	}
	info, payload, err := Open(data)
	if err != nil {
		return nil, err
	}
	c, err := ByID(info.CodecID)
	if err != nil {
		return nil, err
	}
	return c.Decompress(payload)
}

// Inspect returns container routing info without decoding the payload.
func Inspect(data []byte) (*Info, error) {
	info, _, err := Open(data)
	return info, err
}

// readDims validates the rank (minRank..4) and reads that many uint64
// dimensions; rank 0 — a stream of unknown shape — yields nil.
func readDims(r io.Reader, rank, minRank uint8) ([]int, error) {
	if rank < minRank || rank > 4 {
		return nil, fmt.Errorf("%w: rank %d outside %d..4", ErrCorrupt, rank, minRank)
	}
	var dims []int
	for i := 0; i < int(rank); i++ {
		var d uint64
		if err := readLE(r, &d); err != nil {
			return nil, err
		}
		if d == 0 || d >= 1<<32 {
			return nil, fmt.Errorf("%w: dimension %d", ErrCorrupt, d)
		}
		dims = append(dims, int(d))
	}
	return dims, nil
}

// readLE reads fixed-size little-endian values, mapping short reads to
// ErrTruncated.
func readLE(r io.Reader, vs ...interface{}) error {
	for _, v := range vs {
		if err := binary.Read(r, binary.LittleEndian, v); err != nil {
			return fmt.Errorf("%w: container ends mid-field", ErrTruncated)
		}
	}
	return nil
}

// readName reads a uint16-prefixed name, mapping short reads to ErrTruncated.
func readName(r io.Reader) (string, error) {
	var n uint16
	if err := readLE(r, &n); err != nil {
		return "", err
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return "", fmt.Errorf("%w: header ends mid-name", ErrTruncated)
	}
	return string(b), nil
}
