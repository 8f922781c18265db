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
//
// The codec owns only its transform and its coefficient coding. The blocks
// are grid.Blocks(dims, BlockEdge) and a block's cells are visited with
// grid's cell walk — the tiling the regression predictor and windowed SSIM
// use — and the container is parsed with grid.Cursor, as the prediction
// codec's is: every blob is a bounds-checked subslice of the input, and a
// shape with more padded coefficients than the payload has bits is refused
// before anything is sized by it.
package transform

import (
	"encoding/binary"
	"errors"
	"fmt"
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

// cellPos is the row-major index, in a 4^rank block buffer, of the cell at
// block-local coordinates local: Σ local[a]·4^(rank−1−a). Cells a block
// clipped at the field's edge lacks stay zero.
func cellPos(local []int) int {
	p := 0
	for _, l := range local {
		p = p*BlockEdge + l
	}
	return p
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
	blockLen := 1 << (2 * rank)
	blocks := grid.Blocks(f.Dims, BlockEdge)
	st := f.Strides()
	coeffs := make([]int64, len(blocks)*blockLen)
	var counts [65]int64 // one slot per bits.Len64 value
	for bi, b := range blocks {
		blk := coeffs[bi*blockLen : (bi+1)*blockLen]
		w := b.Cells(st)
		for w.Next() {
			// Reject values whose codes overflow the int64 budget the
			// transform needs (it can grow magnitudes by ~2 bits per level;
			// keep codes under 2^55).
			c := math.Round(f.Data[w.Flat] / step)
			if math.Abs(c) > 1<<55 || math.IsNaN(c) {
				return nil, fmt.Errorf("transform: value %g too large for bound %g", f.Data[w.Flat], opts.ErrorBound)
			}
			blk[cellPos(w.Local())] = int64(c)
		}
		fwdBlock(blk, rank)
		for _, c := range blk {
			counts[classOf(c)]++
		}
	}

	// Entropy code: Huffman over classes, raw extra bits.
	cb, err := huffman.BuildDense(counts[:], nil)
	if err != nil {
		return nil, err
	}
	defer cb.Release()
	codebook := cb.Serialize()
	var lut [65]uint64
	cb.FillLUT(lut[:])
	bw := bitio.NewWriter(len(coeffs) / 2)
	for _, c := range coeffs {
		cl := classOf(c)
		bw.WriteBits(lut[cl]>>8, uint(lut[cl]&0xff)) // code<<8 | length
		if cl > 0 {
			u, neg := uint64(c), uint64(0)
			if c < 0 {
				u, neg = uint64(-c), 1
			}
			bw.WriteBits(neg, 1)
			// Implicit leading one: emit the low cl-1 bits.
			bw.WriteBits(u&(1<<(cl-1)-1), uint(cl-1))
		}
	}
	classBits := bw.Bits()
	payload := bw.Bytes()

	name := f.Name
	if len(name) > 65535 {
		name = name[:65535]
	}
	le := binary.LittleEndian
	out := make([]byte, 0, 4+8+2+8*rank+2+len(name)+4+len(codebook)+4+len(payload))
	out = le.AppendUint32(out, containerMagic)
	out = le.AppendUint64(out, math.Float64bits(opts.ErrorBound))
	out = append(out, uint8(f.Prec), uint8(rank))
	for _, d := range f.Dims {
		out = le.AppendUint64(out, uint64(d))
	}
	out = le.AppendUint16(out, uint16(len(name)))
	out = append(out, name...)
	out = le.AppendUint32(out, uint32(len(codebook)))
	out = append(out, codebook...)
	out = le.AppendUint32(out, uint32(len(payload)))
	out = append(out, payload...)

	return &Result{Bytes: out, Stats: Stats{
		N:                f.Len(),
		OriginalBytes:    f.OriginalBytes(),
		CompressedBytes:  int64(len(out)),
		BitRate:          float64(len(out)) * 8 / float64(f.Len()),
		Ratio:            float64(f.OriginalBytes()) / float64(len(out)),
		PayloadBits:      classBits,
		ClassEntropyBits: classBits,
	}}, nil
}

// Decompress reconstructs a field compressed by Compress. The parse is a
// grid.Cursor over data: the name, codebook and payload are subslices of
// data, and nothing is sized by the declared shape until the payload is
// known to hold it.
func Decompress(data []byte) (*grid.Field, error) { return DecompressInto(nil, data) }

// DecompressInto is Decompress decoding into dst: when cap(dst) holds the
// field, the returned field's Data is dst[:n] (see grid.Reuse).
func DecompressInto(dst []float64, data []byte) (*grid.Field, error) {
	c := grid.NewCursor(data)
	if c.U32() != containerMagic {
		return nil, errors.New("transform: bad magic")
	}
	eb := c.F64()
	prec := c.U8()
	dims, n := c.Dims()
	name := c.Take(int(c.U16()))
	cbBytes := c.Blob()
	payload := c.Blob()
	if err := c.Err(); err != nil {
		return nil, err
	}
	// A class code costs at least one bit, so a payload with fewer bits than
	// the shape has padded coefficients cannot hold it: refuse before
	// anything is sized by the shape.
	coeffs := 1
	for _, d := range dims {
		e := (d + BlockEdge - 1) / BlockEdge * BlockEdge
		if e > 8*len(payload)/coeffs {
			return nil, fmt.Errorf("%w: shape %v outgrows a %d-byte payload", grid.ErrTruncated, dims, len(payload))
		}
		coeffs *= e
	}
	cb, _, err := huffman.Parse(cbBytes)
	if err != nil {
		return nil, err
	}
	defer cb.Release()

	f, err := grid.FromData(string(name), grid.Precision(prec), grid.Reuse(dst, n), dims...)
	if err != nil {
		return nil, err
	}
	rank := len(dims)
	buf := make([]int64, 1<<(2*rank))
	var cls [1]uint32
	br := bitio.NewReader(payload)
	step := 2 * eb
	st := f.Strides()
	for _, b := range grid.Blocks(dims, BlockEdge) {
		for i := range buf {
			if err := cb.Decode(br, cls[:]); err != nil {
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
			low, err := br.ReadBits(uint(cl - 1))
			if err != nil {
				return nil, err
			}
			buf[i] = int64(1)<<(cl-1) | int64(low)
			if neg == 1 {
				buf[i] = -buf[i]
			}
		}
		invBlock(buf, rank)
		w := b.Cells(st)
		for w.Next() {
			f.Data[w.Flat] = float64(buf[cellPos(w.Local())]) * step
		}
	}
	return f, nil
}
