package codec

import (
	"encoding/binary"
	"errors"
	"fmt"

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
	if f == nil {
		return nil, fmt.Errorf("%w: no field", ErrCorrupt)
	}
	if _, err := grid.ShapeLen(f.Dims); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	b := make([]byte, 0, 8+8*len(f.Dims)+2+min(len(f.Name), maxEnvelopeName)+8+len(payload))
	b = appendHead(b, envelopeVersion, id, f.Prec, f.Dims, f.Name)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(payload)))
	return append(b, payload...), nil
}

// appendHead appends the frame prefix the envelope and the stream header
// share: magic, version, codec ID, precision, rank, dims, and the name
// (uint16 length + bytes, cut at maxEnvelopeName).
func appendHead(b []byte, version uint8, id ID, prec grid.Precision, dims []int, name string) []byte {
	b = binary.LittleEndian.AppendUint32(b, envelopeMagic)
	b = append(b, version, uint8(id), uint8(prec), uint8(len(dims)))
	for _, d := range dims {
		b = binary.LittleEndian.AppendUint64(b, uint64(d))
	}
	name = name[:min(len(name), maxEnvelopeName)]
	b = binary.LittleEndian.AppendUint16(b, uint16(len(name)))
	return append(b, name...)
}

// frameErr types a frame parse failure: a frame cut short is ErrTruncated,
// any other failure (a shape outside grid's rule) ErrCorrupt.
func frameErr(err error) error {
	switch {
	case errors.Is(err, ErrTruncated):
		return err
	case errors.Is(err, grid.ErrTruncated):
		return fmt.Errorf("%w: %v", ErrTruncated, err)
	}
	return fmt.Errorf("%w: %v", ErrCorrupt, err)
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
	if len(data) < 8 {
		return nil, nil, fmt.Errorf("%w: %d bytes, need an 8-byte header", ErrTruncated, len(data))
	}
	c := grid.NewCursor(data[4:])
	version, id, prec := c.U8(), c.U8(), c.U8()
	if version == chunkedVersion {
		return openChunked(data)
	}
	if version != envelopeVersion {
		return nil, nil, fmt.Errorf("%w: version %d, this build reads %d and %d",
			ErrUnsupportedVersion, version, envelopeVersion, chunkedVersion)
	}
	dims, _ := c.Dims()
	name := string(c.Take(int(c.U16())))
	payloadLen := c.U64()
	if err := c.Err(); err != nil {
		return nil, nil, frameErr(err)
	}
	if payloadLen > uint64(c.Len()) {
		return nil, nil, fmt.Errorf("%w: payload declares %d bytes, %d remain",
			ErrTruncated, payloadLen, c.Len())
	}
	if uint64(c.Len()) > payloadLen {
		return nil, nil, fmt.Errorf("%w: %d trailing bytes after payload",
			ErrCorrupt, uint64(c.Len())-payloadLen)
	}
	info := &Info{
		CodecID:      ID(id),
		Version:      version,
		FieldName:    name,
		Prec:         grid.Precision(prec),
		Dims:         dims,
		PayloadBytes: int(payloadLen),
	}
	if backend, err := ByID(info.CodecID); err == nil {
		info.CodecName = backend.Name()
	}
	return info, c.Take(c.Len()), nil
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
