// Package grid holds N-dimensional scalar fields (1D–4D) in row-major
// float64 buffers, together with the metadata the compressor and the
// ratio-quality model need: logical shape, stride math, block iteration, and
// the original storage precision used for ratio accounting (a field loaded
// from float32 data counts 32 bits per value when computing compression
// ratios, exactly as the paper does). It also holds the one shape rule, the
// .rqmf sample codec, and the Cursor every frame and payload parses with.
package grid

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Precision records how the original data was stored on disk. Compression
// ratio is original bits per value divided by compressed bits per value.
type Precision int

const (
	// Float32 marks single-precision origin (32 bits/value).
	Float32 Precision = 32
	// Float64 marks double-precision origin (64 bits/value).
	Float64 Precision = 64
)

// Bits returns the bit width per value for the precision.
func (p Precision) Bits() int { return int(p) }

// Field is an N-dimensional scalar field. Data is row-major: the last
// dimension varies fastest.
type Field struct {
	// Name identifies the field (e.g. "nyx/temperature").
	Name string
	// Dims holds the logical extents, outermost first. len(Dims) in [1,4].
	Dims []int
	// Data is the row-major sample buffer, length = product(Dims).
	Data []float64
	// Prec is the original storage precision for ratio accounting.
	Prec Precision
}

// AppendShape is the one shape rule, for every shape written or read: rank
// 1..4, every dimension 1..2^32, and the count's float64 bytes fit an int.
// It appends the rank dimensions next yields to dst and returns them with
// their count. next is called only while the shape holds, so a reader reads
// nothing past a bad dimension; an error from next is returned as is.
func AppendShape(dst []int, rank int, next func() (uint64, error)) ([]int, int, error) {
	if rank < 1 || rank > 4 {
		return nil, 0, fmt.Errorf("grid: bad rank %d", rank)
	}
	n := 1
	for range rank {
		d, err := next()
		if err != nil {
			return nil, 0, err
		}
		if d == 0 || d > 1<<32 {
			return nil, 0, fmt.Errorf("grid: bad dimension %d", int64(d))
		}
		if uint64(n) > uint64(math.MaxInt/8)/d {
			return nil, 0, errors.New("grid: dimension product overflows")
		}
		dst = append(dst, int(d))
		n *= int(d)
	}
	return dst, n, nil
}

// ShapeLen judges dims by AppendShape's rule and returns their sample count.
func ShapeLen(dims []int) (int, error) {
	var judged [4]int
	_, n, err := AppendShape(judged[:0], len(dims), func() (uint64, error) {
		d := dims[0]
		dims = dims[1:]
		return uint64(d), nil
	})
	return n, err
}

// MaxPrealloc bounds the values a reader reserves room for on the strength
// of a declared shape alone (128 MiB of float64): a corrupt header must not
// drive a huge allocation from a tiny input, and an honest field beyond the
// cap just grows with the values that arrive.
const MaxPrealloc = 1 << 24

// ErrTruncated marks a payload that ends before a field it declares.
var ErrTruncated = errors.New("grid: truncated payload")

// Cursor is a bounds-checked, zero-copy reader over a native codec payload:
// every read is checked against the bytes present, and a blob comes back as
// a subslice of the payload, never a copy, so no declared length sizes an
// allocation. The first failed read is kept in Err; every read after it
// returns zero values, so a parser reads its fields and checks Err once
// before it uses them.
type Cursor struct {
	rest []byte
	err  error
}

// NewCursor starts a cursor at the first byte of b.
func NewCursor(b []byte) Cursor { return Cursor{rest: b} }

// Err returns the first read failure, or nil.
func (c *Cursor) Err() error { return c.err }

// Len returns the number of unread bytes.
func (c *Cursor) Len() int { return len(c.rest) }

// fail records err unless an earlier failure is already recorded.
func (c *Cursor) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// Take returns the next n bytes (nil once the cursor has failed).
func (c *Cursor) Take(n int) []byte {
	if c.err != nil {
		return nil
	}
	if n < 0 || n > len(c.rest) {
		c.fail(fmt.Errorf("%w: %d bytes wanted, %d remain", ErrTruncated, n, len(c.rest)))
		return nil
	}
	b := c.rest[:n:n]
	c.rest = c.rest[n:]
	return b
}

// U8 reads one byte.
func (c *Cursor) U8() uint8 {
	if b := c.Take(1); b != nil {
		return b[0]
	}
	return 0
}

// U16 reads a little-endian uint16.
func (c *Cursor) U16() uint16 {
	if b := c.Take(2); b != nil {
		return binary.LittleEndian.Uint16(b)
	}
	return 0
}

// U32 reads a little-endian uint32.
func (c *Cursor) U32() uint32 {
	if b := c.Take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// U64 reads a little-endian uint64.
func (c *Cursor) U64() uint64 {
	if b := c.Take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// F64 reads a little-endian float64.
func (c *Cursor) F64() float64 { return math.Float64frombits(c.U64()) }

// Blob reads a uint32 length prefix and returns that many bytes.
func (c *Cursor) Blob() []byte { return c.Take(int(c.U32())) }

// Dims reads a shape — a rank byte, then one uint64 per axis, judged by
// AppendShape as they are read — and returns it with its value count. A bad
// shape fails the cursor (after an earlier failure, that failure stands).
func (c *Cursor) Dims() ([]int, int) {
	dims, n, err := AppendShape(make([]int, 0, 4), int(c.U8()), func() (uint64, error) {
		d := c.U64()
		return d, c.err
	})
	if err != nil {
		c.fail(err)
	}
	return dims, n
}

// New allocates a zero-filled field with the given shape.
func New(name string, prec Precision, dims ...int) (*Field, error) {
	n, err := ShapeLen(dims)
	if err != nil {
		return nil, err
	}
	return FromData(name, prec, make([]float64, n), dims...)
}

// MustNew is New that panics on error; for tests and generators with
// compile-time-constant shapes.
func MustNew(name string, prec Precision, dims ...int) *Field {
	f, err := New(name, prec, dims...)
	if err != nil {
		panic(err)
	}
	return f
}

// FromData wraps an existing buffer (no copy, no throwaway allocation);
// len(data) must match the shape product.
func FromData(name string, prec Precision, data []float64, dims ...int) (*Field, error) {
	n, err := ShapeLen(dims)
	if err != nil {
		return nil, err
	}
	if len(data) != n {
		return nil, fmt.Errorf("grid: data length %d does not match shape %v (%d)", len(data), dims, n)
	}
	return &Field{
		Name: name,
		Dims: append([]int(nil), dims...),
		Data: data,
		Prec: prec,
	}, nil
}

// Len returns the total number of samples.
func (f *Field) Len() int { return len(f.Data) }

// Rank returns the number of dimensions.
func (f *Field) Rank() int { return len(f.Dims) }

// Strides returns row-major strides matching Dims (outermost first).
func (f *Field) Strides() []int { return Strides(f.Dims) }

// Strides returns the row-major strides of a shape (outermost first).
func Strides(dims []int) []int {
	s := make([]int, len(dims))
	acc := 1
	for i := len(dims) - 1; i >= 0; i-- {
		s[i] = acc
		acc *= dims[i]
	}
	return s
}

// Index converts per-dimension coordinates to a flat offset. No bounds
// checks beyond slice access; callers keep coordinates in range.
func (f *Field) Index(coord ...int) int {
	idx := 0
	st := f.Strides()
	for i, c := range coord {
		idx += c * st[i]
	}
	return idx
}

// At reads the sample at the given coordinates.
func (f *Field) At(coord ...int) float64 { return f.Data[f.Index(coord...)] }

// Set writes the sample at the given coordinates.
func (f *Field) Set(v float64, coord ...int) { f.Data[f.Index(coord...)] = v }

// Clone deep-copies the field.
func (f *Field) Clone() *Field {
	c := &Field{
		Name: f.Name,
		Dims: append([]int(nil), f.Dims...),
		Data: append([]float64(nil), f.Data...),
		Prec: f.Prec,
	}
	return c
}

// OriginalBytes returns the size of the field in its original precision.
func (f *Field) OriginalBytes() int64 {
	return int64(f.Len()) * int64(f.Prec.Bits()/8)
}

// ValueRange scans for (min, max).
func (f *Field) ValueRange() (lo, hi float64) {
	if len(f.Data) == 0 {
		return 0, 0
	}
	lo, hi = f.Data[0], f.Data[0]
	for _, v := range f.Data[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// Block describes an axis-aligned sub-box of a field: Origin coordinates and
// Size per dimension (clipped at field edges by Blocks).
type Block struct {
	Origin []int
	Size   []int
}

// Blocks partitions a field of shape dims into blocks of edge `edge`
// (clipped at the boundary) and returns them in scan order. It is the one
// tiling: the regression predictor (edge 6, as in SZ), the transform codec
// (edge 4) and windowed SSIM all walk it. Every block's Origin and Size share
// one backing array, so tiling makes two allocations however many blocks.
func Blocks(dims []int, edge int) []Block {
	if edge <= 0 {
		edge = 1
	}
	rank := len(dims)
	total := 1
	for _, d := range dims {
		total *= (d + edge - 1) / edge
	}
	out := make([]Block, total)
	ints := make([]int, 2*rank*total)
	for bi := range out {
		b := Block{Origin: ints[:rank:rank], Size: ints[rank : 2*rank : 2*rank]}
		ints = ints[2*rank:]
		rem := bi
		for i := rank - 1; i >= 0; i-- {
			count := (dims[i] + edge - 1) / edge
			b.Origin[i] = rem % count * edge
			rem /= count
			b.Size[i] = min(edge, dims[i]-b.Origin[i])
		}
		out[bi] = b
	}
	return out
}

// CellWalk visits the cells of one block in scan order, the last axis
// fastest. After each Next that reports true, Flat is the cell's index in
// the field and Local returns its coordinates relative to the block's
// origin. A walk lives on its caller's stack: it allocates nothing. Drive it
// as `w := b.Cells(st); for w.Next() { ... }` — declared in a three-clause
// for, the walk would be copied into a fresh variable every iteration.
type CellWalk struct {
	Flat  int
	st    []int
	size  []int
	local [4]int
}

// Cells starts a walk over b's cells in a field with row-major strides st.
func (b Block) Cells(st []int) CellWalk {
	last := len(b.Size) - 1
	w := CellWalk{st: st, size: b.Size}
	for i, o := range b.Origin {
		w.Flat += o * st[i]
	}
	// One step before the first cell, so the first Next lands on it.
	w.local[last] = -1
	w.Flat -= st[last]
	return w
}

// Next advances to the next cell and reports whether there was one.
func (w *CellWalk) Next() bool {
	for i := len(w.size) - 1; i >= 0; i-- {
		w.local[i]++
		w.Flat += w.st[i]
		if w.local[i] < w.size[i] {
			return true
		}
		w.Flat -= w.local[i] * w.st[i]
		w.local[i] = 0
	}
	return false
}

// Local returns the current cell's block-local coordinates (valid until the
// next call to Next).
func (w *CellWalk) Local() []int { return w.local[:len(w.size)] }

// binary layout magic for the on-disk raw field format (cmd/datagen output).
const fieldMagic = 0x52514d46 // "RQMF"

// sampleBuf is the size of the fixed buffer .rqmf samples pass through.
const sampleBuf = 8 << 10

// EncodeSamples appends vals to b as little-endian samples at prec — float32
// for Float32, float64 otherwise. With DecodeSamples it is the one sample
// codec of .rqmf bodies and of a stream's raw bytes.
func EncodeSamples(b []byte, prec Precision, vals []float64) []byte {
	for _, v := range vals {
		if prec == Float32 {
			b = binary.LittleEndian.AppendUint32(b, math.Float32bits(float32(v)))
		} else {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
	}
	return b
}

// DecodeSamples appends the whole little-endian samples in b, at prec (see
// EncodeSamples), to vals and returns the extended slice.
func DecodeSamples(vals []float64, prec Precision, b []byte) []float64 {
	if prec == Float32 {
		for ; len(b) >= 4; b = b[4:] {
			vals = append(vals, float64(math.Float32frombits(binary.LittleEndian.Uint32(b))))
		}
		return vals
	}
	for ; len(b) >= 8; b = b[8:] {
		vals = append(vals, math.Float64frombits(binary.LittleEndian.Uint64(b)))
	}
	return vals
}

// WriteTo serializes the field: magic, precision, rank, dims, then samples in
// the original precision (float32 values are stored as float32), encoded
// through a fixed buffer. Returns the byte count written.
func (f *Field) WriteTo(w io.Writer) (int64, error) {
	n, err := WriteHeader(w, f.Prec, f.Dims)
	buf := make([]byte, 0, sampleBuf)
	for i := 0; err == nil && i < len(f.Data); i += sampleBuf / 8 {
		var m int
		m, err = w.Write(EncodeSamples(buf, f.Prec, f.Data[i:min(i+sampleBuf/8, len(f.Data))]))
		n += int64(m)
	}
	return n, err
}

// ReadHeader parses a WriteTo header — magic, precision, shape — one 8-byte
// span per field, and leaves r positioned at the first sample, so callers
// can stream the sample section instead of materializing the field (the raw
// samples follow as little-endian values in the returned precision).
func ReadHeader(r io.Reader) (Precision, []int, error) {
	h := new(struct { // one allocation: the span and the returned dims
		span [8]byte
		dims [4]int
	})
	next := func() (uint64, error) {
		_, err := io.ReadFull(r, h.span[:])
		return binary.LittleEndian.Uint64(h.span[:]), err
	}
	magic, err := next()
	if err != nil {
		return 0, nil, err
	}
	if magic != fieldMagic {
		return 0, nil, fmt.Errorf("grid: bad magic %#x", magic)
	}
	meta, err := next()
	if err != nil {
		return 0, nil, err
	}
	prec := Precision(meta >> 8)
	if prec != Float32 && prec != Float64 {
		return 0, nil, fmt.Errorf("grid: bad precision %d", prec)
	}
	dims, _, err := AppendShape(h.dims[:0], int(meta&0xFF), next)
	return prec, dims, err
}

// WriteHeader writes the WriteTo header for a shape without its samples —
// the streaming mirror of ReadHeader — in one Write. Returns the byte count
// written.
func WriteHeader(w io.Writer, prec Precision, dims []int) (int64, error) {
	if _, err := ShapeLen(dims); err != nil {
		return 0, err
	}
	b := make([]byte, 0, 8*(2+len(dims)))
	b = binary.LittleEndian.AppendUint64(b, fieldMagic)
	b = binary.LittleEndian.AppendUint64(b, uint64(prec)<<8|uint64(len(dims)))
	for _, d := range dims {
		b = binary.LittleEndian.AppendUint64(b, uint64(d))
	}
	n, err := w.Write(b)
	return int64(n), err
}

// ReadFrom deserializes a field written by WriteTo. The header sizes
// nothing: the sample slice starts with room for at most MaxPrealloc values
// and grows only as samples arrive through a fixed-size buffer, so a shape
// larger than its body fails with io.ErrUnexpectedEOF having allocated no
// more than the body and the cap.
func ReadFrom(r io.Reader) (*Field, error) {
	prec, dims, err := ReadHeader(r)
	if err != nil {
		return nil, err
	}
	n, _ := ShapeLen(dims) // ReadHeader judged the shape
	width := prec.Bits() / 8
	data := make([]float64, 0, min(n, MaxPrealloc))
	buf := make([]byte, sampleBuf)
	for len(data) < n {
		b := buf[:min(n-len(data), len(buf)/width)*width]
		if _, err := io.ReadFull(r, b); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF // the header promised samples
			}
			return nil, err
		}
		data = DecodeSamples(data, prec, b)
	}
	return &Field{Dims: dims, Data: data, Prec: prec}, nil
}
