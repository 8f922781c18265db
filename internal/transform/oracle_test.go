package transform

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"rqm/internal/bitio"
	"rqm/internal/grid"
	"rqm/internal/huffman"
)

// The oracle: the transform codec as it was before the fused coefficient
// coder and the block walk — a materialised grid.Blocks tiling, a
// cell-by-cell gather and scatter, an axis pass that filters line starts
// by modulo, and one Huffman call plus raw ReadBits/WriteBits per
// coefficient. Its one change is the wide-class fix: low bits wider than 32
// go through bitio in two parts (past 57 bits, classes 59 and 60, one call
// panicked).
// FuzzTransformMatchesOracle and the tests in coder_test.go hold the codec
// to it: equal containers, equal decoded bits, equally classed errors.

func oracleAxisPass(buf []int64, rank, axis int, line func([]int64, int)) {
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

func oracleFwdBlock(buf []int64, rank int) {
	for axis := rank - 1; axis >= 0; axis-- {
		oracleAxisPass(buf, rank, axis, haar4Fwd)
	}
}

func oracleInvBlock(buf []int64, rank int) {
	for axis := 0; axis < rank; axis++ {
		oracleAxisPass(buf, rank, axis, haar4Inv)
	}
}

func oracleCompress(f *grid.Field, opts Options) (*Result, error) {
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
	var counts [65]int64
	for bi, b := range blocks {
		blk := coeffs[bi*blockLen : (bi+1)*blockLen]
		w := b.Cells(st)
		for w.Next() {
			c := math.Round(f.Data[w.Flat] / step)
			if math.Abs(c) > 1<<55 || math.IsNaN(c) {
				return nil, fmt.Errorf("transform: value %g too large for bound %g", f.Data[w.Flat], opts.ErrorBound)
			}
			blk[cellPos(w.Local())] = int64(c)
		}
		oracleFwdBlock(blk, rank)
		for _, c := range blk {
			counts[classOf(c)]++
		}
	}

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
		bw.WriteBits(lut[cl]>>8, uint(lut[cl]&0xff))
		if cl > 0 {
			u, neg := uint64(c), uint64(0)
			if c < 0 {
				u, neg = uint64(-c), 1
			}
			bw.WriteBits(neg, 1)
			low := u & (1<<(cl-1) - 1)
			if cl-1 > 32 { // the wide-class fix
				bw.WriteBits(low>>32, uint(cl-1-32))
				bw.WriteBits(low, 32)
			} else {
				bw.WriteBits(low, uint(cl-1))
			}
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
		N:               f.Len(),
		OriginalBytes:   f.OriginalBytes(),
		CompressedBytes: int64(len(out)),
		BitRate:         float64(len(out)) * 8 / float64(f.Len()),
		Ratio:           float64(f.OriginalBytes()) / float64(len(out)),
		PayloadBits:     classBits,
	}}, nil
}

func oracleDecompressInto(dst []float64, data []byte) (*grid.Field, error) {
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
			var low uint64
			if cl-1 > 32 { // the wide-class fix
				hi, err := br.ReadBits(uint(cl - 1 - 32))
				if err != nil {
					return nil, err
				}
				lo, err := br.ReadBits(32)
				if err != nil {
					return nil, err
				}
				low = hi<<32 | lo
			} else if low, err = br.ReadBits(uint(cl - 1)); err != nil {
				return nil, err
			}
			buf[i] = int64(1)<<(cl-1) | int64(low)
			if neg == 1 {
				buf[i] = -buf[i]
			}
		}
		oracleInvBlock(buf, rank)
		w := b.Cells(st)
		for w.Next() {
			f.Data[w.Flat] = float64(buf[cellPos(w.Local())]) * step
		}
	}
	return f, nil
}
