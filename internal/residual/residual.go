// Package residual implements the lossless residual layer over a lossy
// container: the difference between the original field and its decoded
// reconstruction, bit for bit, in a self-describing framed file stored
// beside the base container.
//
// A block holds its residual in one of two layouts, chosen per block by a
// size estimate. The ULP layout (ulp.go) stores each value's integer
// distance from its reconstruction in value-ordered key space, bit-packed at
// a width the reconstruction's exponent sets: under an absolute error bound
// that width is known per value, so the distances pack tightly and decode
// with one bit-field read each. The XOR layout stores the XOR of the
// storage-width bit patterns (float32 → uint32, float64 → uint64): when the
// predictor is good the reconstruction shares the sign, exponent, and high
// mantissa bits of the original, so the XOR is mostly zeros in the high
// bytes — byte-plane transposition groups those near-constant planes
// together, and a generic entropy backend (Huffman, tANS, or LZ77 — see
// Codec) compresses them far below the raw width; the backend a file
// names codes only its XOR blocks. Neither is a
// floating-point subtraction: both are exactly invertible on bit patterns,
// NaN payloads included. The XOR layout wins where the residual is mostly
// exact zeros (a zero-dominated field reconstructed to exact zeros); the
// ULP layout wherever the bound leaves noise in every value.
//
// File layout (all integers little-endian):
//
//	offset size
//	0      4   magic "RQRS"
//	4      1   version (2; version-1 files hold XOR blocks only)
//	5      1   backend ID
//	6      1   element width in bytes (4 or 8)
//	7      1   reserved (0)
//	8      8   element count
//	16     32  SHA-256 of the exact original payload bytes
//	48     4   block count
//	52     …   block records
//
// Each block record is a 13-byte header — u32 values, u8 flags, u32 encoded
// bytes, u32 CRC-32 (IEEE) of the payload — followed by the payload. Flag
// bit 1 (FlagULP) means the payload is a ULP block: [u16 t][the packed
// distances, zero pad bits]. Flag bit 0 (FlagRaw) means the payload is the
// raw (untransposed) XOR residual bytes: the writer falls back to raw
// storage when coding expands a block. The two are never set together.
// Otherwise the payload is one sub-record per XOR byte plane — [u8
// flags][u32 bytes][data] — each plane entropy-coded with its own model (or
// stored raw when it is incompressible noise): plane separation is the
// entire win, because a single model over concatenated planes blurs the
// near-zero high planes into the noisy low ones. Blocks align one-to-one
// with the base container's chunk index, so a slice read decodes exactly
// the blocks covering its chunks.
package residual

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
	"sync"

	"rqm/internal/bitio"
	"rqm/internal/grid"
)

// Format constants.
const (
	// Magic opens every residual file ("RQRS" little-endian).
	Magic = uint32(0x53525152)
	// Version is the format version the writer stamps. Version 2 added
	// FlagULP; LoadIndex reads versions 1 and 2 and refuses FlagULP in a
	// version-1 file.
	Version = 2
	// versionXOR is the version whose blocks are all XOR-layout.
	versionXOR = 1
	// HeaderSize is the fixed file header length in bytes.
	HeaderSize = 52
	// blockHeaderSize is the fixed per-block header length in bytes.
	blockHeaderSize = 13
	// FlagRaw marks a block (or a plane sub-record) stored as raw bytes
	// because coding would have expanded it.
	FlagRaw = 1 << 0
	// FlagULP marks a block stored in the ULP layout (ulp.go).
	FlagULP = 1 << 1
	// planeHeaderSize is the per-plane sub-record header length in bytes.
	planeHeaderSize = 5
	// maxBlockBytes bounds a single block payload LoadIndex will accept;
	// far above any real block (chunks are tens of KiB), it stops a corrupt
	// length field from driving a multi-GiB allocation.
	maxBlockBytes = 1 << 30
)

// Typed errors; match with errors.Is.
var (
	// ErrBadMagic marks a file that does not open with the residual magic.
	ErrBadMagic = errors.New("residual: bad magic")
	// ErrUnsupportedVersion marks a file with an unknown format version.
	ErrUnsupportedVersion = errors.New("residual: unsupported version")
	// ErrUnknownBackend marks a backend name or ID outside the registry.
	ErrUnknownBackend = errors.New("residual: unknown backend")
	// ErrCorrupt marks structural damage: inconsistent headers, a CRC trip,
	// or a payload that fails to decode.
	ErrCorrupt = errors.New("residual: corrupt container")
	// ErrTruncated marks a file that ends before its declared content.
	ErrTruncated = errors.New("residual: truncated container")
	// ErrGeometry marks an Encoder driven past the blocks or values it
	// declared, or closed before coding them all.
	ErrGeometry = errors.New("residual: block geometry mismatch")
)

// Header is the residual file's fixed header.
type Header struct {
	// BackendID names the entropy backend every block was coded with.
	BackendID uint8
	// Width is the element storage width in bytes (4 or 8).
	Width int
	// ElemCount is the total element count across all blocks.
	ElemCount int64
	// OriginalHash is the SHA-256 of the exact original payload bytes
	// (little-endian floats at Width, no grid header) — the digest an exact
	// read is verified against before serving.
	OriginalHash [32]byte
	// BlockCount is the number of block records.
	BlockCount int
}

// BlockEntry locates one block record inside the file.
type BlockEntry struct {
	// Offset is the record's byte offset from the file start.
	Offset int64
	// Values is the block's element count.
	Values int
	// Flags is the block's flag byte (FlagRaw or FlagULP).
	Flags uint8
	// EncBytes is the payload length.
	EncBytes int
	// CRC is the CRC-32 (IEEE) of the payload.
	CRC uint32
}

// Index is a parsed residual file skeleton: the header plus every block's
// location, built by one header scan without touching payloads.
type Index struct {
	Header Header
	Blocks []BlockEntry
}

// widthOf maps a grid precision to its storage width in bytes.
func widthOf(prec grid.Precision) (int, error) {
	switch prec.Bits() {
	case 32:
		return 4, nil
	case 64:
		return 8, nil
	}
	return 0, fmt.Errorf("residual: unsupported precision %v", prec)
}

// Compute returns the XOR residual of orig against recon, little-endian at
// the storage width, in plain element order. Applying it to recon with Apply
// reproduces orig's storage bit patterns exactly.
func Compute(orig, recon []float64, prec grid.Precision) ([]byte, error) {
	if len(orig) != len(recon) {
		return nil, fmt.Errorf("residual: %d original values vs %d reconstructed", len(orig), len(recon))
	}
	w, err := widthOf(prec)
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(orig)*w)
	if w == 4 {
		for i := range orig {
			x := math.Float32bits(float32(orig[i])) ^ math.Float32bits(float32(recon[i]))
			binary.LittleEndian.PutUint32(out[4*i:], x)
		}
		return out, nil
	}
	for i := range orig {
		x := math.Float64bits(orig[i]) ^ math.Float64bits(recon[i])
		binary.LittleEndian.PutUint64(out[8*i:], x)
	}
	return out, nil
}

// Apply XORs the residual into recon in place, recovering the original
// values at storage precision. res must be len(recon)*width bytes.
func Apply(recon []float64, res []byte, prec grid.Precision) error {
	w, err := widthOf(prec)
	if err != nil {
		return err
	}
	return applyRaw(recon, res, w)
}

// applyRaw is Apply at a known storage width.
func applyRaw(recon []float64, res []byte, w int) error {
	if len(res) != len(recon)*w {
		return fmt.Errorf("%w: %d residual bytes for %d values at width %d", ErrCorrupt, len(res), len(recon), w)
	}
	if w == 4 {
		for i := range recon {
			x := math.Float32bits(float32(recon[i])) ^ binary.LittleEndian.Uint32(res[4*i:])
			recon[i] = float64(math.Float32frombits(x))
		}
		return nil
	}
	for i := range recon {
		x := math.Float64bits(recon[i]) ^ binary.LittleEndian.Uint64(res[8*i:])
		recon[i] = math.Float64frombits(x)
	}
	return nil
}

// scratch is the working memory of one block in flight: an Encoder builds
// a block in it, the readers load and decode a block in it. It lives in
// scratchPool between calls, so nothing that points into it may outlive the
// call that took it — ReadBlock copies out what it returns, ApplyBlock
// leaves only the XORed values behind.
type scratch struct {
	// planes holds the block's byte planes, values×width bytes: plane p is
	// bytes [p·values, (p+1)·values).
	planes []byte
	// payload is a block record's bytes: assembled here by an Encoder, read
	// here from the file by the readers. Raw planes are used from it in
	// place.
	payload []byte
	// syms and bits serve the huffman backend, whose package codes uint32
	// symbols into a bitio.Writer.
	syms []uint32
	bits bitio.Writer
	// stats is an Encoder's one pass over the block, which picks its layout.
	stats blockStats
	// ulp is a ULP block's per-exponent widths and masks, for ApplyBlock.
	ulp ulpTable
}

var scratchPool = sync.Pool{New: func() interface{} { return new(scratch) }}

// grow returns (*buf)[:n], reallocating only when the capacity is short.
// The contents are unspecified.
func grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	return (*buf)[:n]
}

// hashSlab is how many payload bytes OriginalHash hands SHA-256 at a time:
// large enough that the block function, not the call, is the cost.
const hashSlab = 32 << 10

// OriginalHash is the SHA-256 of vals serialized at the storage width by
// grid.EncodeSamples — the payload digest stamped into the file header and
// the manifest, which every exact read proves the bytes it serves against.
func OriginalHash(vals []float64, prec grid.Precision) ([32]byte, error) {
	var sum [32]byte
	w, err := widthOf(prec)
	if err != nil {
		return sum, err
	}
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	slab := grow(&s.payload, hashSlab)
	h := sha256.New()
	for per := hashSlab / w; len(vals) > 0; {
		part := vals[:min(per, len(vals))]
		vals = vals[len(part):]
		h.Write(grid.EncodeSamples(slab[:0], prec, part))
	}
	h.Sum(sum[:0])
	return sum, nil
}

// planeViews slices a values×width plane buffer into its planes.
func planeViews(planes []byte, values, width int) (p [8][]byte) {
	for k := 0; k < width; k++ {
		p[k] = planes[k*values : (k+1)*values]
	}
	return p
}

// xorPlanes writes the XOR residual of orig against recon straight into
// byte planes: byte p of element i's storage-width XOR lands at
// planes[p·n+i]. The near-zero high planes of a well-predicted residual
// become long constant runs, each coded with its own model.
func xorPlanes(planes []byte, orig, recon []float64, width int) {
	recon = recon[:len(orig)]
	p := planeViews(planes, len(orig), width)
	if width == 4 {
		for i, o := range orig {
			x := math.Float32bits(float32(o)) ^ math.Float32bits(float32(recon[i]))
			p[0][i], p[1][i], p[2][i], p[3][i] = byte(x), byte(x>>8), byte(x>>16), byte(x>>24)
		}
		return
	}
	for i, o := range orig {
		x := math.Float64bits(o) ^ math.Float64bits(recon[i])
		p[0][i], p[1][i], p[2][i], p[3][i] = byte(x), byte(x>>8), byte(x>>16), byte(x>>24)
		p[4][i], p[5][i], p[6][i], p[7][i] = byte(x>>32), byte(x>>40), byte(x>>48), byte(x>>56)
	}
}

// applyPlanes XORs a block's byte planes into vals in place — the inverse
// of xorPlanes, recovering the original values at storage precision. Each
// plane holds len(vals) bytes.
func applyPlanes(vals []float64, p *[8][]byte, width int) {
	if width == 4 {
		for i, v := range vals {
			x := uint32(p[0][i]) | uint32(p[1][i])<<8 | uint32(p[2][i])<<16 | uint32(p[3][i])<<24
			vals[i] = float64(math.Float32frombits(math.Float32bits(float32(v)) ^ x))
		}
		return
	}
	for i, v := range vals {
		x := uint64(p[0][i]) | uint64(p[1][i])<<8 | uint64(p[2][i])<<16 | uint64(p[3][i])<<24 |
			uint64(p[4][i])<<32 | uint64(p[5][i])<<40 | uint64(p[6][i])<<48 | uint64(p[7][i])<<56
		vals[i] = math.Float64frombits(math.Float64bits(v) ^ x)
	}
}

// interleave regroups byte planes into plain element order — the layout of
// Compute's output and of a FlagRaw block.
func interleave(out []byte, p *[8][]byte, width int) {
	for k := 0; k < width; k++ {
		for i, b := range p[k] {
			out[i*width+k] = b
		}
	}
}

// Encode writes a complete residual file: orig XOR recon, blocked by the
// base container's chunk geometry (blocks[i] values in block i), through one
// Encoder. Returns the byte count written.
func Encode(w io.Writer, c Codec, prec grid.Precision, orig, recon []float64, blocks []int) (int64, error) {
	if len(orig) != len(recon) {
		return 0, fmt.Errorf("residual: %d original values vs %d reconstructed", len(orig), len(recon))
	}
	enc, err := NewEncoder(w, c, prec, orig, nil, len(blocks))
	if err != nil {
		return 0, err
	}
	for _, v := range blocks {
		if v < 0 || v > len(recon) {
			v = 0 // an empty block, which Block refuses
		}
		if err := enc.Block(recon[:v]); err != nil {
			return enc.n, err
		}
		recon = recon[v:]
	}
	return enc.Close()
}

// Encoder writes a residual file a block at a time, as each block's
// reconstruction decodes. A call against the declared geometry fails with
// ErrGeometry and writes nothing; any failure is final.
type Encoder struct {
	w      io.Writer
	c      Codec
	width  int
	orig   []float64 // the original values not yet coded
	blocks int       // the declared blocks not yet coded
	n      int64     // bytes written
	err    error
}

// NewEncoder writes the header of a residual file of len(orig) values in
// nblocks blocks, each coded with c. The header carries origHash, which a
// caller that has proved orig against a stored OriginalHash passes; nil
// hashes orig (OriginalHash).
func NewEncoder(w io.Writer, c Codec, prec grid.Precision, orig []float64, origHash *[32]byte, nblocks int) (*Encoder, error) {
	width, err := widthOf(prec)
	if err != nil {
		return nil, err
	}
	if origHash == nil {
		sum, err := OriginalHash(orig, prec)
		if err != nil {
			return nil, err
		}
		origHash = &sum
	}
	hdr := binary.LittleEndian.AppendUint32(make([]byte, 0, HeaderSize), Magic)
	hdr = append(hdr, Version, c.ID(), byte(width), 0) // the reserved byte
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(len(orig)))
	hdr = append(hdr, origHash[:]...)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(nblocks))
	if _, err := w.Write(hdr); err != nil {
		return nil, err
	}
	return &Encoder{w: w, c: c, width: width, orig: orig, blocks: nblocks, n: HeaderSize}, nil
}

// Block codes the next len(recon) original values against their
// reconstruction recon as one block record.
func (e *Encoder) Block(recon []float64) error {
	switch {
	case e.err != nil:
	case e.blocks <= 0:
		e.err = fmt.Errorf("%w: a block past the declared count", ErrGeometry)
	case len(recon) == 0 || len(recon) > len(e.orig):
		e.err = fmt.Errorf("%w: a block of %d values with %d original values left", ErrGeometry, len(recon), len(e.orig))
	default:
		s := scratchPool.Get().(*scratch)
		var record []byte
		if record, e.err = encodeBlock(s, e.c, e.orig[:len(recon)], recon, e.width); e.err == nil {
			var n int
			n, e.err = e.w.Write(record)
			e.n += int64(n)
		}
		scratchPool.Put(s)
		e.orig, e.blocks = e.orig[len(recon):], e.blocks-1
	}
	return e.err
}

// Close reports the bytes written, refusing a file whose declared blocks or
// values were not all coded.
func (e *Encoder) Close() (int64, error) {
	if e.err == nil && (e.blocks != 0 || len(e.orig) != 0) {
		e.err = fmt.Errorf("%w: %d blocks and %d original values never coded", ErrGeometry, e.blocks, len(e.orig))
	}
	return e.n, e.err
}

// encodeBlock builds one block record — header and payload — in the scratch
// and returns it, valid until the scratch's next use. One pass over the
// values measures both layouts: the ULP layout's exact size and the XOR
// layout's order-0 estimate. The block is a ULP block when that is smaller:
//
//	ulpPayloadSize(Σw_i) < Σ_planes min(n, ⌈H_p·n/8⌉ + 40)
//
// Otherwise it is an XOR block (encodeXORBlock). The entropy backends
// cannot code a plane below its order-0 entropy; lz77's matches can, so an
// lz77 block the rule gives to the ULP layout is coded both ways and the
// smaller kept.
func encodeBlock(s *scratch, c Codec, orig, recon []float64, width int) ([]byte, error) {
	st := &s.stats
	st.measure(orig, recon, width)
	nbits := st.ulpBits(width)
	if ulpPayloadSize(nbits) >= st.xorEstimate(len(orig), width) {
		return encodeXORBlock(s, c, orig, recon, width)
	}
	if c.ID() == idLZ77 {
		rec, err := encodeXORBlock(s, c, orig, recon, width)
		if err != nil || len(rec)-blockHeaderSize <= ulpPayloadSize(nbits) {
			return rec, err
		}
	}
	rec := append(s.payload[:0], make([]byte, blockHeaderSize)...)
	rec = appendULP(rec, orig, recon, width, st.t, nbits)
	return frameBlock(s, rec, len(orig), FlagULP), nil
}

// encodeXORBlock builds an XOR block record in the scratch and returns it,
// valid until the scratch's next use. Each byte plane is coded
// independently and stored raw when its own coding expands it; a block
// whose planes together do not beat the raw width is stored as the raw
// element-order residual instead.
func encodeXORBlock(s *scratch, c Codec, orig, recon []float64, width int) ([]byte, error) {
	n := len(orig)
	rec := append(s.payload[:0], make([]byte, blockHeaderSize)...)
	planes := grow(&s.planes, n*width)
	xorPlanes(planes, orig, recon, width)
	var err error
	for p := 0; p < width; p++ {
		plane := planes[p*n : (p+1)*n]
		at := len(rec) + planeHeaderSize
		rec = append(rec, make([]byte, planeHeaderSize)...)
		if rec, err = c.Compress(rec, plane, s); err != nil {
			return nil, err
		}
		flags := uint8(0)
		if len(rec)-at >= n {
			rec, flags = append(rec[:at], plane...), FlagRaw
		}
		rec[at-planeHeaderSize] = flags
		binary.LittleEndian.PutUint32(rec[at-planeHeaderSize+1:], uint32(len(rec)-at))
	}
	flags := uint8(0)
	if len(rec)-blockHeaderSize >= n*width {
		p := planeViews(planes, n, width)
		rec = append(rec[:blockHeaderSize], make([]byte, n*width)...)
		interleave(rec[blockHeaderSize:], &p, width)
		flags = FlagRaw
	}
	return frameBlock(s, rec, n, flags), nil
}

// frameBlock fills in the header of a record of n values whose payload
// follows it in rec, and keeps rec as the scratch's record buffer.
func frameBlock(s *scratch, rec []byte, n int, flags uint8) []byte {
	payload := rec[blockHeaderSize:]
	binary.LittleEndian.PutUint32(rec[0:], uint32(n))
	rec[4] = flags
	binary.LittleEndian.PutUint32(rec[5:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(rec[9:], crc32.ChecksumIEEE(payload))
	s.payload = rec // keep what the appends grew
	return rec
}

// LoadIndex reads the file header and scans every block header (seeking
// past payloads), validating structure as it goes: magic, version, a
// registered backend, a sane width, flags the version knows, payload
// lengths the layout can have, and block counts that sum to the declared
// element count. Payload bytes are not read or verified here.
func LoadIndex(r io.ReadSeeker) (*Index, error) {
	if _, err := r.Seek(0, io.SeekStart); err != nil {
		return nil, fmt.Errorf("residual: %w", err)
	}
	end, err := r.Seek(0, io.SeekEnd)
	if err != nil {
		return nil, fmt.Errorf("residual: %w", err)
	}
	if _, err := r.Seek(0, io.SeekStart); err != nil {
		return nil, fmt.Errorf("residual: %w", err)
	}
	var hdr [HeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrTruncated, err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != Magic {
		return nil, ErrBadMagic
	}
	version := hdr[4]
	if version != Version && version != versionXOR {
		return nil, fmt.Errorf("%w: %d", ErrUnsupportedVersion, version)
	}
	if _, err := ByID(hdr[5]); err != nil {
		return nil, err
	}
	if hdr[6] != 4 && hdr[6] != 8 {
		return nil, fmt.Errorf("%w: element width %d", ErrCorrupt, hdr[6])
	}
	if hdr[7] != 0 {
		return nil, fmt.Errorf("%w: nonzero reserved byte", ErrCorrupt)
	}
	elems := binary.LittleEndian.Uint64(hdr[8:])
	if elems == 0 || elems > uint64(math.MaxInt64) {
		return nil, fmt.Errorf("%w: element count %d", ErrCorrupt, elems)
	}
	nblocks := binary.LittleEndian.Uint32(hdr[48:])
	if nblocks == 0 || uint64(nblocks) > elems {
		return nil, fmt.Errorf("%w: %d blocks for %d elements", ErrCorrupt, nblocks, elems)
	}
	idx := &Index{Header: Header{
		BackendID:  hdr[5],
		Width:      int(hdr[6]),
		ElemCount:  int64(elems),
		BlockCount: int(nblocks),
	}}
	copy(idx.Header.OriginalHash[:], hdr[16:48])

	off := int64(HeaderSize)
	var covered int64
	var bh [blockHeaderSize]byte
	for i := 0; i < int(nblocks); i++ {
		if _, err := io.ReadFull(r, bh[:]); err != nil {
			return nil, fmt.Errorf("%w: block %d header: %v", ErrTruncated, i, err)
		}
		e := BlockEntry{
			Offset:   off,
			Values:   int(binary.LittleEndian.Uint32(bh[0:])),
			Flags:    bh[4],
			EncBytes: int(binary.LittleEndian.Uint32(bh[5:])),
			CRC:      binary.LittleEndian.Uint32(bh[9:]),
		}
		if e.Values <= 0 || e.EncBytes <= 0 || e.EncBytes > maxBlockBytes {
			return nil, fmt.Errorf("%w: block %d: %d values, %d bytes", ErrCorrupt, i, e.Values, e.EncBytes)
		}
		known := uint8(FlagRaw)
		if version != versionXOR {
			known |= FlagULP
		}
		if e.Flags&^known != 0 || e.Flags == FlagRaw|FlagULP {
			return nil, fmt.Errorf("%w: block %d: unknown flags %#x", ErrCorrupt, i, e.Flags)
		}
		if e.Flags&FlagRaw != 0 && e.EncBytes != e.Values*idx.Header.Width {
			return nil, fmt.Errorf("%w: block %d: raw payload of %d bytes for %d values", ErrCorrupt, i, e.EncBytes, e.Values)
		}
		if e.Flags&FlagULP != 0 && (e.EncBytes < ulpHeaderSize || e.EncBytes > ulpPayloadSize(8*e.Values*idx.Header.Width)) {
			return nil, fmt.Errorf("%w: block %d: ULP payload of %d bytes for %d values", ErrCorrupt, i, e.EncBytes, e.Values)
		}
		next := off + blockHeaderSize + int64(e.EncBytes)
		if next > end {
			return nil, fmt.Errorf("%w: block %d runs past the file end", ErrTruncated, i)
		}
		if _, err := r.Seek(next, io.SeekStart); err != nil {
			return nil, fmt.Errorf("residual: %w", err)
		}
		covered += int64(e.Values)
		off = next
		idx.Blocks = append(idx.Blocks, e)
	}
	if covered != idx.Header.ElemCount {
		return nil, fmt.Errorf("%w: blocks cover %d values, header declares %d", ErrCorrupt, covered, idx.Header.ElemCount)
	}
	if off != end {
		return nil, fmt.Errorf("%w: %d trailing bytes after the last block", ErrCorrupt, end-off)
	}
	return idx, nil
}

// readPayload reads block e's payload into the scratch and verifies its
// CRC. The returned slice is scratch memory, with ulpPad bytes of capacity
// past its end for the ULP reader's wide loads.
func readPayload(s *scratch, r io.ReadSeeker, e BlockEntry) ([]byte, error) {
	if _, err := r.Seek(e.Offset+blockHeaderSize, io.SeekStart); err != nil {
		return nil, fmt.Errorf("residual: %w", err)
	}
	payload := grow(&s.payload, e.EncBytes+ulpPad)[:e.EncBytes]
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("%w: block payload: %v", ErrTruncated, err)
	}
	if crc := crc32.ChecksumIEEE(payload); crc != e.CRC {
		return nil, fmt.Errorf("%w: block CRC %08x, expected %08x", ErrCorrupt, crc, e.CRC)
	}
	return payload, nil
}

// decodePlanes is the one plane decoder under every reader: it walks the
// per-plane sub-records of a coded block's payload and returns each plane's
// values bytes. A raw plane is used in place from the payload; a coded one
// is decoded by c into the scratch. The views are scratch memory.
func decodePlanes(s *scratch, c Codec, payload []byte, values, width int) (p [8][]byte, err error) {
	p = planeViews(grow(&s.planes, values*width), values, width)
	pos := 0
	for k := 0; k < width; k++ {
		if len(payload)-pos < planeHeaderSize {
			return p, fmt.Errorf("%w: plane %d header", ErrTruncated, k)
		}
		flags := payload[pos]
		encLen := int(binary.LittleEndian.Uint32(payload[pos+1:]))
		pos += planeHeaderSize
		if flags&^uint8(FlagRaw) != 0 {
			return p, fmt.Errorf("%w: plane %d: unknown flags %#x", ErrCorrupt, k, flags)
		}
		if len(payload)-pos < encLen {
			return p, fmt.Errorf("%w: plane %d payload of %d bytes", ErrTruncated, k, encLen)
		}
		enc := payload[pos : pos+encLen]
		pos += encLen
		if flags&FlagRaw != 0 {
			if encLen != values {
				return p, fmt.Errorf("%w: raw plane %d holds %d bytes for %d values", ErrCorrupt, k, encLen, values)
			}
			p[k] = enc
			continue
		}
		if err := c.Decompress(p[k], enc, s); err != nil {
			return p, err
		}
	}
	if pos != len(payload) {
		return p, fmt.Errorf("%w: %d trailing bytes after plane %d", ErrCorrupt, len(payload)-pos, width-1)
	}
	return p, nil
}

// VerifyBlock reads one block's payload and verifies its CRC — the
// shallow-scrub pass over a residual file. With deep set it also decodes
// every plane of an XOR block, the proof that the block will still apply.
// A ULP block cannot be split into values without its reconstruction:
// deep verification checks its t, and the store's deep verification
// proves it by applying it (the exact read against original_hash).
func VerifyBlock(r io.ReadSeeker, hdr Header, e BlockEntry, deep bool) error {
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	payload, err := readPayload(s, r, e)
	if err != nil || !deep || e.Flags&FlagRaw != 0 {
		return err
	}
	if e.Flags&FlagULP != 0 {
		_, err = checkULPHead(payload, hdr.Width)
		return err
	}
	c, err := ByID(hdr.BackendID)
	if err != nil {
		return err
	}
	_, err = decodePlanes(s, c, payload, e.Values, hdr.Width)
	return err
}

// ReadBlock reads, CRC-verifies, and decodes one XOR-layout block,
// returning the raw residual bytes (e.Values × width, plain element order)
// ready for Apply. A ULP block's distances cannot be turned into XOR bytes
// without the reconstruction, so for one ReadBlock returns a copy of its
// CRC-checked payload (t checked) and ApplyBlock is the one applier of both
// layouts. The result is the caller's: it never aliases the reader's
// scratch.
func ReadBlock(r io.ReadSeeker, hdr Header, e BlockEntry) ([]byte, error) {
	c, err := ByID(hdr.BackendID)
	if err != nil {
		return nil, err
	}
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	payload, err := readPayload(s, r, e)
	if err != nil {
		return nil, err
	}
	switch e.Flags {
	case FlagULP:
		if _, err := checkULPHead(payload, hdr.Width); err != nil {
			return nil, err
		}
		return slices.Clone(payload), nil
	case FlagRaw:
		return slices.Clone(payload), nil
	}
	p, err := decodePlanes(s, c, payload, e.Values, hdr.Width)
	if err != nil {
		return nil, err
	}
	out := make([]byte, e.Values*hdr.Width)
	interleave(out, &p, hdr.Width)
	return out, nil
}

// ApplyBlock reads, CRC-verifies and decodes one block and applies it to
// vals in place: a ULP block's distances are added in key space, an XOR
// block's decoded planes go straight into the values (ReadBlock followed
// by Apply without the element-order copy between them). vals holds the
// block's e.Values lossy reconstructions and leaves holding the original
// values at storage precision. On error vals is untouched.
func ApplyBlock(r io.ReadSeeker, hdr Header, e BlockEntry, vals []float64) error {
	c, err := ByID(hdr.BackendID)
	if err != nil {
		return err
	}
	if len(vals) != e.Values {
		return fmt.Errorf("%w: block of %d values applied to %d", ErrCorrupt, e.Values, len(vals))
	}
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	payload, err := readPayload(s, r, e)
	if err != nil {
		return err
	}
	switch e.Flags {
	case FlagULP:
		return applyULP(&s.ulp, vals, payload, hdr.Width)
	case FlagRaw:
		return applyRaw(vals, payload, hdr.Width)
	}
	p, err := decodePlanes(s, c, payload, e.Values, hdr.Width)
	if err != nil {
		return err
	}
	applyPlanes(vals, &p, hdr.Width)
	return nil
}
