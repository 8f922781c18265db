package residual

import (
	"encoding/binary"
	"fmt"

	"rqm/internal/ans"
	"rqm/internal/huffman"
	"rqm/internal/lz77"
)

// Codec is one entropy backend for the byte planes of a residual block.
// Compress is free to expand (the container falls back to storing the plane
// raw); Decompress must reproduce exactly len(plane) bytes or fail typed.
// Both work on the caller's buffers and the block's pooled scratch, so a
// warm encode or decode allocates nothing per plane. Backends are stateless
// and safe for concurrent use, each call with its own scratch.
type Codec interface {
	// Name is the backend's registry name (recorded in manifests).
	Name() string
	// ID is the backend's wire ID (recorded in the container header).
	ID() uint8
	// Compress appends plane's self-contained coded form to dst.
	Compress(dst, plane []byte, s *scratch) ([]byte, error)
	// Decompress decodes enc into plane, filling it exactly.
	Decompress(plane, enc []byte, s *scratch) error
}

// Wire IDs. Frozen: containers carry them, so renumbering is a format break.
const (
	idHuffman = 1
	idANS     = 2
	idLZ77    = 3
)

// DefaultBackend is the backend used when the caller does not pick one.
// tANS over byte planes wins on the near-constant high planes a good
// predictor leaves behind, at table costs amortized per block.
const DefaultBackend = "ans"

var (
	byName = map[string]Codec{}
	byID   = map[uint8]Codec{}
)

func register(c Codec) {
	byName[c.Name()] = c
	byID[c.ID()] = c
}

func init() {
	register(huffCodec{})
	register(ansCodec{})
	register(lzCodec{})
}

// ByName resolves a backend by registry name.
func ByName(name string) (Codec, error) {
	if c, ok := byName[name]; ok {
		return c, nil
	}
	return nil, fmt.Errorf("%w: %q", ErrUnknownBackend, name)
}

// ByID resolves a backend by wire ID.
func ByID(id uint8) (Codec, error) {
	if c, ok := byID[id]; ok {
		return c, nil
	}
	return nil, fmt.Errorf("%w: id %d", ErrUnknownBackend, id)
}

// Known reports whether name is a registered backend.
func Known(name string) bool { _, ok := byName[name]; return ok }

// histogram counts plane's byte values into h. Four interleaved tables keep
// a run of equal bytes — the common case on a well-predicted plane — from
// serializing on one counter's store-to-load latency.
func histogram(h *[256]uint32, plane []byte) {
	var part [4][256]uint32
	i := 0
	for ; i+4 <= len(plane); i += 4 {
		part[0][plane[i]]++
		part[1][plane[i+1]]++
		part[2][plane[i+2]]++
		part[3][plane[i+3]]++
	}
	for ; i < len(plane); i++ {
		part[0][plane[i]]++
	}
	for b := range h {
		h[b] = part[0][b] + part[1][b] + part[2][b] + part[3][b]
	}
}

// errWideSymbol rejects a coding table that names a symbol no byte plane can
// hold, before its stream is touched.
func errWideSymbol(backend string, sym uint32) error {
	return fmt.Errorf("%w: %s table names symbol %d outside byte range", ErrCorrupt, backend, sym)
}

// huffCodec frames a canonical Huffman stream as
// [codebook][u64 LE bit count][bitstream]. The huffman package codes uint32
// symbols; the plane is widened into the scratch for it rather than into a
// fresh slice.
type huffCodec struct{}

func (huffCodec) Name() string { return "huffman" }
func (huffCodec) ID() uint8    { return idHuffman }

func (huffCodec) Compress(dst, plane []byte, s *scratch) ([]byte, error) {
	var hist [256]uint32
	histogram(&hist, plane)
	var counts [256]int64
	for b, n := range hist {
		counts[b] = int64(n)
	}
	cb, err := huffman.BuildDense(counts[:], nil)
	if err != nil {
		return nil, err
	}
	defer cb.Release()
	var lut [256]uint64
	cb.FillLUT(lut[:])
	syms := grow(&s.syms, len(plane))
	for i, b := range plane {
		syms[i] = uint32(b)
	}
	s.bits.Reset()
	if err := cb.EncodeLUT(&s.bits, syms, lut[:]); err != nil {
		return nil, err
	}
	dst = cb.AppendSerialized(dst)
	dst = binary.LittleEndian.AppendUint64(dst, s.bits.Bits())
	return append(dst, s.bits.Bytes()...), nil
}

func (huffCodec) Decompress(plane, enc []byte, s *scratch) error {
	cb, consumed, err := huffman.Parse(enc)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	defer cb.Release()
	if cb.MaxSymbol() > 0xff {
		return errWideSymbol("huffman", cb.MaxSymbol())
	}
	if len(enc) < consumed+8 {
		return fmt.Errorf("%w: huffman payload shorter than its bit count", ErrTruncated)
	}
	bits := binary.LittleEndian.Uint64(enc[consumed:])
	stream := enc[consumed+8:]
	if bits > uint64(len(stream))*8 {
		return fmt.Errorf("%w: %d bits declared, %d bytes present", ErrTruncated, bits, len(stream))
	}
	syms := grow(&s.syms, len(plane))
	if err := cb.DecodeSerial(stream, syms); err != nil {
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	for i, sym := range syms {
		plane[i] = byte(sym)
	}
	return nil
}

// ansCodec frames a 2-lane tANS stream as
// [table][u64 LE bit count][2 × u32 LE final state][bitstream].
type ansCodec struct{}

func (ansCodec) Name() string { return "ans" }
func (ansCodec) ID() uint8    { return idANS }

// ansTrailer is the bit count and final states between table and stream.
const ansTrailer = 8 + 4*ans.NumStates

func (ansCodec) Compress(dst, plane []byte, _ *scratch) ([]byte, error) {
	var hist, lut [256]uint32
	histogram(&hist, plane)
	t, err := ans.BuildDense(hist[:])
	if err != nil {
		return nil, err
	}
	defer t.Release()
	t.FillLUT(lut[:])
	dst = t.AppendSerialized(dst)
	at := len(dst)
	var trailer [ansTrailer]byte // filled in once the stream is coded
	dst, states, bits, err := t.EncodeBytes(append(dst, trailer[:]...), plane, lut[:])
	if err != nil {
		return nil, err
	}
	binary.LittleEndian.PutUint64(dst[at:], bits)
	for i, st := range states {
		binary.LittleEndian.PutUint32(dst[at+8+4*i:], st)
	}
	return dst, nil
}

func (ansCodec) Decompress(plane, enc []byte, _ *scratch) error {
	t, consumed, err := ans.Parse(enc)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	defer t.Release()
	if t.MaxSymbol() > 0xff {
		return errWideSymbol("ans", t.MaxSymbol())
	}
	if len(enc) < consumed+ansTrailer {
		return fmt.Errorf("%w: ans payload shorter than its state block", ErrTruncated)
	}
	bits := binary.LittleEndian.Uint64(enc[consumed:])
	var states [ans.NumStates]uint32
	for i := range states {
		states[i] = binary.LittleEndian.Uint32(enc[consumed+8+4*i:])
	}
	if err := t.DecodeBytes(enc[consumed+ansTrailer:], states, bits, plane); err != nil {
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return nil
}

// lzCodec stores the lz77 token stream directly; it is self-delimiting given
// the original length.
type lzCodec struct{}

func (lzCodec) Name() string { return "lz77" }
func (lzCodec) ID() uint8    { return idLZ77 }

func (lzCodec) Compress(dst, plane []byte, _ *scratch) ([]byte, error) {
	return lz77.AppendEncode(dst, plane), nil
}

func (lzCodec) Decompress(plane, enc []byte, _ *scratch) error {
	if err := lz77.DecodeInto(plane, enc); err != nil {
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return nil
}
