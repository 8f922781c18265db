// Package grid holds N-dimensional scalar fields (1D–4D) in row-major
// float64 buffers, together with the metadata the compressor and the
// ratio-quality model need: logical shape, stride math, block iteration, and
// the original storage precision used for ratio accounting (a field loaded
// from float32 data counts 32 bits per value when computing compression
// ratios, exactly as the paper does).
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

// shapeLen validates a shape (rank 1..4, positive dims, overflow-guarded
// product) and returns its sample count — the single source of the shape
// rules shared by New and FromData.
func shapeLen(dims []int) (int, error) {
	if len(dims) < 1 || len(dims) > 4 {
		return 0, fmt.Errorf("grid: unsupported rank %d (want 1..4)", len(dims))
	}
	n := 1
	for _, d := range dims {
		if d <= 0 {
			return 0, fmt.Errorf("grid: non-positive dimension %d", d)
		}
		if n > math.MaxInt/d {
			return 0, errors.New("grid: dimension product overflows")
		}
		n *= d
	}
	return n, nil
}

// New allocates a zero-filled field with the given shape.
func New(name string, prec Precision, dims ...int) (*Field, error) {
	n, err := shapeLen(dims)
	if err != nil {
		return nil, err
	}
	return &Field{
		Name: name,
		Dims: append([]int(nil), dims...),
		Data: make([]float64, n),
		Prec: prec,
	}, nil
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
	n, err := shapeLen(dims)
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
func (f *Field) Strides() []int {
	s := make([]int, len(f.Dims))
	acc := 1
	for i := len(f.Dims) - 1; i >= 0; i-- {
		s[i] = acc
		acc *= f.Dims[i]
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
// (clipped at the boundary) and returns them in scan order. Used by the
// regression predictor (edge 6 in SZ) and by windowed SSIM.
func Blocks(dims []int, edge int) []Block {
	if edge <= 0 {
		edge = 1
	}
	rank := len(dims)
	counts := make([]int, rank)
	total := 1
	for i, d := range dims {
		counts[i] = (d + edge - 1) / edge
		total *= counts[i]
	}
	out := make([]Block, 0, total)
	coord := make([]int, rank)
	for {
		b := Block{Origin: make([]int, rank), Size: make([]int, rank)}
		for i := range coord {
			b.Origin[i] = coord[i] * edge
			sz := edge
			if b.Origin[i]+sz > dims[i] {
				sz = dims[i] - b.Origin[i]
			}
			b.Size[i] = sz
		}
		out = append(out, b)
		// Increment odometer.
		i := rank - 1
		for ; i >= 0; i-- {
			coord[i]++
			if coord[i] < counts[i] {
				break
			}
			coord[i] = 0
		}
		if i < 0 {
			break
		}
	}
	return out
}

// ForEachInBlock invokes fn for every flat index inside block b, in scan
// order, passing the per-dimension coordinates (valid until return).
func (f *Field) ForEachInBlock(b Block, fn func(flat int, coord []int)) {
	rank := f.Rank()
	coord := make([]int, rank)
	copy(coord, b.Origin)
	st := f.Strides()
	for {
		flat := 0
		for i := range coord {
			flat += coord[i] * st[i]
		}
		fn(flat, coord)
		i := rank - 1
		for ; i >= 0; i-- {
			coord[i]++
			if coord[i] < b.Origin[i]+b.Size[i] {
				break
			}
			coord[i] = b.Origin[i]
		}
		if i < 0 {
			return
		}
	}
}

// binary layout magic for the on-disk raw field format (cmd/datagen output).
const fieldMagic = 0x52514d46 // "RQMF"

// WriteTo serializes the field: magic, precision, rank, dims, then samples in
// the original precision (float32 values are stored as float32). Returns the
// byte count written.
func (f *Field) WriteTo(w io.Writer) (int64, error) {
	n, err := WriteHeader(w, f.Prec, f.Dims)
	if err != nil {
		return n, err
	}
	if f.Prec == Float32 {
		buf := make([]float32, len(f.Data))
		for i, v := range f.Data {
			buf[i] = float32(v)
		}
		if err := binary.Write(w, binary.LittleEndian, buf); err != nil {
			return n, err
		}
		n += int64(4 * len(buf))
		return n, nil
	}
	if err := binary.Write(w, binary.LittleEndian, f.Data); err != nil {
		return n, err
	}
	n += int64(8 * len(f.Data))
	return n, nil
}

// ReadHeader parses a WriteTo header — magic, precision, shape — and leaves
// r positioned at the first sample, so callers can stream the sample
// section instead of materializing the field (the raw samples follow as
// little-endian values in the returned precision).
func ReadHeader(r io.Reader) (Precision, []int, error) {
	var magic, meta uint64
	if err := binary.Read(r, binary.LittleEndian, &magic); err != nil {
		return 0, nil, err
	}
	if magic != fieldMagic {
		return 0, nil, fmt.Errorf("grid: bad magic %#x", magic)
	}
	if err := binary.Read(r, binary.LittleEndian, &meta); err != nil {
		return 0, nil, err
	}
	prec := Precision(meta >> 8)
	rank := int(meta & 0xFF)
	if prec != Float32 && prec != Float64 {
		return 0, nil, fmt.Errorf("grid: bad precision %d", prec)
	}
	if rank < 1 || rank > 4 {
		return 0, nil, fmt.Errorf("grid: bad rank %d", rank)
	}
	dims := make([]int, rank)
	for i := range dims {
		var d uint64
		if err := binary.Read(r, binary.LittleEndian, &d); err != nil {
			return 0, nil, err
		}
		if d == 0 || d > 1<<32 {
			return 0, nil, fmt.Errorf("grid: bad dimension %d", d)
		}
		dims[i] = int(d)
	}
	return prec, dims, nil
}

// WriteHeader writes the WriteTo header for a shape without its samples —
// the streaming mirror of ReadHeader. Returns the byte count written.
func WriteHeader(w io.Writer, prec Precision, dims []int) (int64, error) {
	if len(dims) < 1 || len(dims) > 4 {
		return 0, fmt.Errorf("grid: unsupported rank %d (want 1..4)", len(dims))
	}
	hdr := make([]uint64, 0, 2+len(dims))
	hdr = append(hdr, fieldMagic, uint64(prec)<<8|uint64(len(dims)))
	for _, d := range dims {
		hdr = append(hdr, uint64(d))
	}
	var n int64
	for _, h := range hdr {
		if err := binary.Write(w, binary.LittleEndian, h); err != nil {
			return n, err
		}
		n += 8
	}
	return n, nil
}

// ReadFrom deserializes a field written by WriteTo.
func ReadFrom(r io.Reader) (*Field, error) {
	prec, dims, err := ReadHeader(r)
	if err != nil {
		return nil, err
	}
	f, err := New("", prec, dims...)
	if err != nil {
		return nil, err
	}
	if prec == Float32 {
		buf := make([]float32, f.Len())
		if err := binary.Read(r, binary.LittleEndian, buf); err != nil {
			return nil, err
		}
		for i, v := range buf {
			f.Data[i] = float64(v)
		}
		return f, nil
	}
	if err := binary.Read(r, binary.LittleEndian, f.Data); err != nil {
		return nil, err
	}
	return f, nil
}
