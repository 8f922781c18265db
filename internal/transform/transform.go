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
// are grid.Blocks(dims, BlockEdge), visited in place by grid.WalkBlocks: a
// full block gathers and scatters through a 4^rank offset table, a clipped
// one takes grid's cell walk. A coefficient is one write (class code, sign,
// low bits) and one huffman.Codebook.Step plus one read off a bitio.Window.
// The container is parsed with grid.Cursor, as the prediction codec's is:
// every blob is a bounds-checked subslice of the input, and a shape with
// more padded coefficients than the payload has bits is refused before
// anything is sized by it.
package transform

import (
	"cmp"
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
// in row-major order; the lines along the axis of stride s start at hi+lo,
// hi a multiple of 4s and lo < s. Integer lifting steps along different
// axes do not commute (rounding), so the inverse undoes them in reverse.
func fwdBlock(buf []int64) {
	for s := 1; s < len(buf); s *= 4 { // innermost (stride 1) first
		for hi := 0; hi < len(buf); hi += 4 * s {
			for b := hi; b < hi+s; b++ {
				haar4Fwd(buf[b:], s)
			}
		}
	}
}

func invBlock(buf []int64) {
	for s := len(buf) / 4; s >= 1; s /= 4 { // outermost first: reverse of fwd
		for hi := 0; hi < len(buf); hi += 4 * s {
			for b := hi; b < hi+s; b++ {
				haar4Inv(buf[b:], s)
			}
		}
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

// blockOffsets fills offs (4^rank long) with the field offset, from a full
// block's first cell, of the cell at each block-buffer index: a full block
// gathers and scatters through it, a clipped one takes the cell walk.
func blockOffsets(offs, st []int) {
	var origin [4]int
	edges := [4]int{BlockEdge, BlockEdge, BlockEdge, BlockEdge}
	c := grid.Block{Origin: origin[:len(st)], Size: edges[:len(st)]}.Cells(st)
	for i := 0; c.Next(); i++ {
		offs[i] = c.Flat
	}
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
	st := f.Strides()
	var offs [1 << (2 * 4)]int
	blockOffsets(offs[:blockLen], st)
	w := grid.WalkBlocks(f.Dims, BlockEdge)
	coeffs := make([]int64, w.Count()*blockLen)
	var counts [65]int64 // one slot per bits.Len64 value
	var vals [1 << (2 * 4)]float64
	for blk := coeffs; w.Next(); blk = blk[blockLen:] {
		blk := blk[:blockLen]
		if w.Full {
			for i, o := range offs[:blockLen] {
				vals[i] = f.Data[w.Flat+o]
			}
		} else {
			clear(vals[:blockLen])
			c := w.Block().Cells(st)
			for c.Next() {
				vals[cellPos(c.Local())] = f.Data[c.Flat]
			}
		}
		for i, v := range vals[:blockLen] {
			// Keep codes under 2^55: each axis of the transform can double
			// a coefficient, and the coder takes classes up to 60.
			c := math.Round(v / step)
			if math.Abs(c) > 1<<55 || math.IsNaN(c) {
				return nil, fmt.Errorf("transform: value %g too large for bound %g", v, opts.ErrorBound)
			}
			blk[i] = int64(c)
		}
		fwdBlock(blk)
		for _, c := range blk {
			counts[classOf(c)]++
		}
	}

	// Entropy code: Huffman over classes, then the sign and the low class−1
	// bits under the implicit leading one, in one write with the class code.
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
		cl := uint(classOf(c))
		code, n := lut[cl]>>8, uint(lut[cl]&0xff) // code<<8 | length
		u, body := uint64(c), uint64(0)           // class 0: shifts by cl−1 (wrapped) give 0
		if c < 0 {
			u, body = uint64(-c), 1<<(cl-1)
		}
		body |= u & (1<<(cl-1) - 1)
		if n+cl <= 57 {
			bw.WriteBits(code<<cl|body, n+cl)
			continue
		}
		bw.WriteBits(code, n)
		if cl > 32 {
			bw.WriteBits(body>>32, cl-32)
		}
		bw.WriteBits(body, min(cl, 32))
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
		N:               f.Len(),
		OriginalBytes:   f.OriginalBytes(),
		CompressedBytes: int64(len(out)),
		BitRate:         float64(len(out)) * 8 / float64(f.Len()),
		Ratio:           float64(f.OriginalBytes()) / float64(len(out)),
		PayloadBits:     classBits,
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
	blockLen := 1 << (2 * len(dims))
	var buf [1 << (2 * 4)]int64
	var offs [1 << (2 * 4)]int
	blk := buf[:blockLen]
	st := f.Strides()
	blockOffsets(offs[:blockLen], st)
	br := bitio.NewReader(payload)
	win := br.Window()
	step := 2 * eb
	w := grid.WalkBlocks(dims, BlockEdge)
	for k := 0; w.Next(); k += blockLen {
		// Coefficient k+i: one codebook step for its class, then its sign
		// and low class−1 bits in one read off the same window.
		for i := range blk {
			cl, err := cb.Step(win, k+i)
			if err != nil {
				return nil, err
			}
			if cl > 60 {
				return nil, fmt.Errorf("transform: invalid class %d at coefficient %d", cl, k+i)
			}
			var body uint64
			if win.N >= uint(cl) {
				body = win.Bits >> (64 - cl)
				win.Bits <<= cl
				win.N -= uint(cl)
			} else { // refill; a class above 57 is more than one read takes
				hi, err := br.ReadBits(uint(cl) - min(uint(cl), 32))
				lo, err2 := br.ReadBits(min(uint(cl), 32))
				if err = cmp.Or(err, err2); err != nil {
					return nil, fmt.Errorf("transform: coefficient %d: %w", k+i, err)
				}
				body = hi<<32 | lo
			}
			// Class 0 reads no bits and is 0: a shift by cl−1 (wrapped) is 0.
			v := int64(1)<<(cl-1) | int64(body&(1<<(cl-1)-1))
			if body>>(cl-1) != 0 {
				v = -v // a select, not a branch: the sign is a coin flip
			}
			blk[i] = v
		}
		invBlock(blk)
		if w.Full {
			for i, o := range offs[:blockLen] {
				f.Data[w.Flat+o] = float64(blk[i]) * step
			}
			continue
		}
		c := w.Block().Cells(st)
		for c.Next() {
			f.Data[c.Flat] = float64(blk[cellPos(c.Local())]) * step
		}
	}
	return f, nil
}
