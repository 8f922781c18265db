// Package transform implements a ZFP-style transform-based error-bounded
// codec — the extension the paper's future work names ("we plan to extend
// our model to other lossy compressors such as the transform-based lossy
// compressor ZFP"). The design keeps ZFP's architecture (independent 4^d
// blocks, a reversible block transform, magnitude-class entropy coding)
// while guaranteeing the pointwise bound exactly:
//
//  1. values are linearly quantized to integer codes of step 2·eb (error
//     ≤ eb by construction, exactly as the SZ quantizer guarantees it),
//  2. each 4^d block of codes passes through a separable integer Haar
//     (S-)transform, which is lossless and decorrelates smooth blocks,
//  3. coefficients are coded as (magnitude class, sign, extra bits) with a
//     canonical Huffman code over the classes.
//
// Because stage 1 fixes the error and stages 2–3 are lossless, the codec is
// error-bounded for any input. The ratio-quality model extends to it by
// sampling block coefficients instead of prediction errors (see model.go).
package transform

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"

	"rqm/internal/bitio"
	"rqm/internal/grid"
	"rqm/internal/huffman"
)

// BlockEdge is the transform block edge (ZFP uses 4).
const BlockEdge = 4

// Options configures a transform-codec run.
type Options struct {
	// ErrorBound is the absolute pointwise bound; must be positive.
	ErrorBound float64
}

// Stats describes one run.
type Stats struct {
	// N is the number of values.
	N int
	// OriginalBytes is the field size at original precision.
	OriginalBytes int64
	// CompressedBytes is the container size.
	CompressedBytes int64
	// BitRate is compressed bits per value.
	BitRate float64
	// Ratio is OriginalBytes*8 / (CompressedBytes*8).
	Ratio float64
	// PayloadBits is the coefficient bitstream size.
	PayloadBits uint64
	// ClassEntropyBits is the Huffman share of PayloadBits (diagnostic).
	ClassEntropyBits uint64
}

// Result is a compressed container plus statistics.
type Result struct {
	Bytes []byte
	Stats Stats
}

// containerMagic is the little-endian magic of the native transform-codec
// container ("RQZF").
const containerMagic uint32 = 0x52515A46

// haar4Fwd applies the two-level integer S-transform to a 4-long line in
// place: (v0..v3) → (ss, sd, d0, d1). Exactly invertible by haar4Inv.
func haar4Fwd(p []int64, s int) {
	a, b, c, d := p[0], p[s], p[2*s], p[3*s]
	d0 := a - b
	s0 := b + d0>>1 // == floor((a+b)/2)
	d1 := c - d
	s1 := d + d1>>1
	sd := s0 - s1
	ss := s1 + sd>>1
	p[0], p[s], p[2*s], p[3*s] = ss, sd, d0, d1
}

// haar4Inv inverts haar4Fwd.
func haar4Inv(p []int64, s int) {
	ss, sd, d0, d1 := p[0], p[s], p[2*s], p[3*s]
	s1 := ss - sd>>1
	s0 := s1 + sd
	b := s0 - d0>>1
	a := b + d0
	d := s1 - d1>>1
	c := d + d1
	p[0], p[s], p[2*s], p[3*s] = a, b, c, d
}

// fwdBlock / invBlock run the separable transform over a 4^rank block held
// in row-major order. Integer lifting steps along different axes do not
// commute (rounding), so the inverse undoes the axes in reverse order.
func fwdBlock(buf []int64, rank int) {
	for axis := rank - 1; axis >= 0; axis-- { // innermost (stride 1) first
		axisPass(buf, rank, axis, haar4Fwd)
	}
}

func invBlock(buf []int64, rank int) {
	for axis := 0; axis < rank; axis++ { // outermost first: reverse of fwd
		axisPass(buf, rank, axis, haar4Inv)
	}
}

// axisPass applies `line` to every 4-long line along the given axis of the
// 4^rank block (axis 0 is outermost, stride 4^(rank-1)).
func axisPass(buf []int64, rank, axis int, line func([]int64, int)) {
	size := 1 << (2 * rank)
	stride := 1
	for a := rank - 1; a > axis; a-- {
		stride *= 4
	}
	for base := 0; base < size; base++ {
		if (base/stride)%4 != 0 {
			continue // not the first cell of its line
		}
		line(buf[base:], stride)
	}
}

// classOf returns the magnitude class of a coefficient: 0 for zero,
// otherwise bits.Len64(|v|) (so v fits in class-1 extra bits after the
// implicit leading one).
func classOf(v int64) uint32 {
	if v == 0 {
		return 0
	}
	u := uint64(v)
	if v < 0 {
		u = uint64(-v)
	}
	return uint32(bits.Len64(u))
}

// Compress encodes f under an absolute error bound.
func Compress(f *grid.Field, opts Options) (*Result, error) {
	if f == nil || f.Len() == 0 {
		return nil, errors.New("transform: empty field")
	}
	if !(opts.ErrorBound > 0) {
		return nil, fmt.Errorf("transform: error bound must be positive, got %v", opts.ErrorBound)
	}
	rank := f.Rank()
	if rank < 1 || rank > 4 {
		return nil, fmt.Errorf("transform: unsupported rank %d", rank)
	}
	step := 2 * opts.ErrorBound
	// Quantize the whole field; reject values whose codes overflow the
	// int64 budget the transform needs (the transform can grow magnitudes
	// by ~2 bits per level; keep codes under 2^55).
	codes := make([]int64, f.Len())
	for i, v := range f.Data {
		c := math.Round(v / step)
		if math.Abs(c) > 1<<55 || math.IsNaN(c) {
			return nil, fmt.Errorf("transform: value %g too large for bound %g", v, opts.ErrorBound)
		}
		codes[i] = int64(c)
	}

	blocks := blockList(f.Dims)
	buf := make([]int64, 1<<(2*rank))
	coeffs := make([]int64, 0, len(codes))
	for _, b := range blocks {
		gather(codes, f.Dims, b, buf)
		fwdBlock(buf, rank)
		coeffs = append(coeffs, buf[:1<<(2*rank)]...)
	}

	// Entropy code: Huffman over classes, raw extra bits.
	classes := make([]uint32, len(coeffs))
	var counts [65]int64 // one slot per bits.Len64 value
	var lut [65]uint64
	for i, c := range coeffs {
		classes[i] = classOf(c)
		counts[classes[i]]++
	}
	cb, err := huffman.BuildDense(counts[:], nil)
	if err != nil {
		return nil, err
	}
	defer cb.Release()
	codebook := cb.Serialize()
	cb.FillLUT(lut[:])
	bw := bitio.NewWriter(len(coeffs) / 2)
	var classBits uint64
	for i, c := range coeffs {
		if err := cb.EncodeLUT(bw, classes[i:i+1], lut[:]); err != nil {
			return nil, err
		}
		if cl := classes[i]; cl > 0 {
			u := uint64(c)
			neg := uint64(0)
			if c < 0 {
				u = uint64(-c)
				neg = 1
			}
			bw.WriteBits(neg, 1)
			if cl > 1 {
				// Implicit leading one: emit the low cl-1 bits.
				bw.WriteBits(u&((1<<(cl-1))-1), uint(cl-1))
			}
		}
	}
	classBits = bw.Bits()
	payload := bw.Bytes()

	var out bytes.Buffer
	w := func(v interface{}) { _ = binary.Write(&out, binary.LittleEndian, v) }
	w(uint32(containerMagic))
	w(opts.ErrorBound)
	w(uint8(f.Prec))
	w(uint8(rank))
	for _, d := range f.Dims {
		w(uint64(d))
	}
	name := []byte(f.Name)
	if len(name) > 65535 {
		name = name[:65535]
	}
	w(uint16(len(name)))
	out.Write(name)
	w(uint32(len(codebook)))
	out.Write(codebook)
	w(uint32(len(payload)))
	out.Write(payload)

	st := Stats{
		N:                f.Len(),
		OriginalBytes:    f.OriginalBytes(),
		CompressedBytes:  int64(out.Len()),
		BitRate:          float64(out.Len()) * 8 / float64(f.Len()),
		Ratio:            float64(f.OriginalBytes()) / float64(out.Len()),
		PayloadBits:      classBits,
		ClassEntropyBits: classBits,
	}
	return &Result{Bytes: out.Bytes(), Stats: st}, nil
}

// Decompress reconstructs a field compressed by Compress.
func Decompress(data []byte) (*grid.Field, error) {
	r := bytes.NewReader(data)
	rd := func(v interface{}) error { return binary.Read(r, binary.LittleEndian, v) }
	var magic uint32
	if err := rd(&magic); err != nil || magic != containerMagic {
		return nil, errors.New("transform: bad magic")
	}
	var eb float64
	var prec, rank uint8
	if err := rd(&eb); err != nil {
		return nil, err
	}
	if err := rd(&prec); err != nil {
		return nil, err
	}
	if err := rd(&rank); err != nil {
		return nil, err
	}
	if rank < 1 || rank > 4 {
		return nil, fmt.Errorf("transform: bad rank %d", rank)
	}
	dims := make([]int, rank)
	for i := range dims {
		var d uint64
		if err := rd(&d); err != nil {
			return nil, err
		}
		if d == 0 || d > 1<<32 {
			return nil, fmt.Errorf("transform: bad dimension %d", d)
		}
		dims[i] = int(d)
	}
	var nameLen uint16
	if err := rd(&nameLen); err != nil {
		return nil, err
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(r, name); err != nil {
		return nil, err
	}
	var cbLen uint32
	if err := rd(&cbLen); err != nil {
		return nil, err
	}
	cbBytes := make([]byte, cbLen)
	if _, err := io.ReadFull(r, cbBytes); err != nil {
		return nil, err
	}
	cb, _, err := huffman.Parse(cbBytes)
	if err != nil {
		return nil, err
	}
	defer cb.Release()
	var payLen uint32
	if err := rd(&payLen); err != nil {
		return nil, err
	}
	payload := make([]byte, payLen)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}

	f, err := grid.New(string(name), grid.Precision(prec), dims...)
	if err != nil {
		return nil, err
	}
	blocks := blockList(dims)
	blockLen := 1 << (2 * rank)
	br := bitio.NewReader(payload)
	buf := make([]int64, blockLen)
	cls := make([]uint32, 1)
	codes := make([]int64, f.Len())
	step := 2 * eb
	for _, b := range blocks {
		for i := 0; i < blockLen; i++ {
			if err := cb.Decode(br, cls); err != nil {
				return nil, err
			}
			cl := cls[0]
			if cl == 0 {
				buf[i] = 0
				continue
			}
			if cl > 60 {
				return nil, fmt.Errorf("transform: invalid class %d", cl)
			}
			neg, err := br.ReadBits(1)
			if err != nil {
				return nil, err
			}
			var low uint64
			if cl > 1 {
				low, err = br.ReadBits(uint(cl - 1))
				if err != nil {
					return nil, err
				}
			}
			v := int64(1)<<(cl-1) | int64(low)
			if neg == 1 {
				v = -v
			}
			buf[i] = v
		}
		invBlock(buf, int(rank))
		scatter(codes, dims, b, buf)
	}
	for i, c := range codes {
		f.Data[i] = float64(c) * step
	}
	return f, nil
}

// box is one 4^rank block with clipping info.
type box struct {
	origin []int
}

// blockList enumerates block origins on the BlockEdge grid.
func blockList(dims []int) []box {
	rank := len(dims)
	counts := make([]int, rank)
	total := 1
	for i, d := range dims {
		counts[i] = (d + BlockEdge - 1) / BlockEdge
		total *= counts[i]
	}
	out := make([]box, 0, total)
	coord := make([]int, rank)
	for {
		b := box{origin: make([]int, rank)}
		for i := range coord {
			b.origin[i] = coord[i] * BlockEdge
		}
		out = append(out, b)
		i := rank - 1
		for ; i >= 0; i-- {
			coord[i]++
			if coord[i] < counts[i] {
				break
			}
			coord[i] = 0
		}
		if i < 0 {
			return out
		}
	}
}

// gather copies a block into buf (row-major 4^rank), zero-padding outside
// the field.
func gather(codes []int64, dims []int, b box, buf []int64) {
	rank := len(dims)
	st := make([]int, rank)
	acc := 1
	for i := rank - 1; i >= 0; i-- {
		st[i] = acc
		acc *= dims[i]
	}
	local := make([]int, rank)
	for idx := range buf {
		rem := idx
		inside := true
		flat := 0
		for ax := rank - 1; ax >= 0; ax-- {
			local[ax] = rem % BlockEdge
			rem /= BlockEdge
		}
		for ax := 0; ax < rank; ax++ {
			c := b.origin[ax] + local[ax]
			if c >= dims[ax] {
				inside = false
				break
			}
			flat += c * st[ax]
		}
		if inside {
			buf[idx] = codes[flat]
		} else {
			buf[idx] = 0
		}
	}
}

// scatter writes a block of codes back, skipping padded cells.
func scatter(codes []int64, dims []int, b box, buf []int64) {
	rank := len(dims)
	st := make([]int, rank)
	acc := 1
	for i := rank - 1; i >= 0; i-- {
		st[i] = acc
		acc *= dims[i]
	}
	local := make([]int, rank)
	for idx := range buf {
		rem := idx
		inside := true
		flat := 0
		for ax := rank - 1; ax >= 0; ax-- {
			local[ax] = rem % BlockEdge
			rem /= BlockEdge
		}
		for ax := 0; ax < rank; ax++ {
			c := b.origin[ax] + local[ax]
			if c >= dims[ax] {
				inside = false
				break
			}
			flat += c * st[ax]
		}
		if inside {
			codes[flat] = buf[idx]
		}
	}
}
