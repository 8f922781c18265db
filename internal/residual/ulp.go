package residual

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// The ULP block layout. Each value's residual is its distance from the
// reconstruction in key space — the storage-width bit pattern remapped to an
// unsigned integer in value order (key32, key64) — zigzagged and bit-packed
// LSB-first at a width the reconstruction's exponent sets:
//
//	w_i = min(8·width, max(0, t − exp(recon_i)))
//
// where exp is the raw biased exponent field of the reconstruction's
// storage pattern and t, one u16 at the head of the payload, is the
// smallest value for which every distance fits: max_i(bitlen(z_i) +
// exp(recon_i)). Under an absolute error bound bitlen(z_i) + exp_i is about
// the same for every value (the bound over the value's ULP), so one t sizes
// the whole block. t is measured from the block, not derived from the
// bound: exactness rests on the construction alone, and NaN payloads, ±Inf,
// −0 and subnormals round-trip like any other pattern.
//
// Decoding a value is one bit-field read and one integer add, where the
// XOR layout entropy-decodes one byte per plane.

// ulpHeaderSize is the ULP payload's head: u16 t.
const ulpHeaderSize = 2

// ulpPad is how far past a ULP payload the reader's buffer reaches, so no
// bit-field read needs a length check: a field is one 8-byte load from its
// first byte, or two for an f64 field wider than 57 bits.
const ulpPad = 16

// key32 maps a float32 bit pattern to a uint32 in value order: a positive
// pattern gains the sign bit, a negative one is complemented.
func key32(u uint32) uint32 { return u ^ (uint32(int32(u)>>31) | 1<<31) }

// unkey32 inverts key32.
func unkey32(k uint32) uint32 { return k ^ (^uint32(int32(k)>>31) | 1<<31) }

// key64 is key32 for float64 bit patterns.
func key64(u uint64) uint64 { return u ^ (uint64(int64(u)>>63) | 1<<63) }

// unkey64 inverts key64.
func unkey64(k uint64) uint64 { return k ^ (^uint64(int64(k)>>63) | 1<<63) }

// zig32 and zig64 fold a two's-complement distance into an unsigned one
// whose bit length grows with its magnitude; unzig32 and unzig64 unfold it.
func zig32(d uint32) uint32   { return d<<1 ^ uint32(int32(d)>>31) }
func unzig32(z uint32) uint32 { return z>>1 ^ -(z & 1) }
func zig64(d uint64) uint64   { return d<<1 ^ uint64(int64(d)>>63) }
func unzig64(z uint64) uint64 { return z>>1 ^ -(z & 1) }

// maxExp is the largest raw biased exponent at a storage width.
func maxExp(width int) int {
	if width == 4 {
		return 0xff
	}
	return 0x7ff
}

// ulpWidth is a value's field width: t − exp clamped to [0, 8·width].
func ulpWidth(t, exp, width int) int {
	return min(8*width, max(0, t-exp))
}

// blockStats is what one pass over a block's (orig, recon) pairs learns:
// the byte histogram of each XOR plane, the histogram of the
// reconstruction's exponents, and the ULP layout's t. The XOR layout's size
// is estimated from the first, the ULP layout's computed from the other two.
type blockStats struct {
	planes [8][256]uint32
	exps   [0x800]uint32
	t      int
}

// measure fills st from one pass over orig against recon.
func (st *blockStats) measure(orig, recon []float64, width int) {
	*st = blockStats{}
	recon = recon[:len(orig)]
	t := 0
	if width == 4 {
		p0, p1, p2, p3 := &st.planes[0], &st.planes[1], &st.planes[2], &st.planes[3]
		for i, o := range orig {
			uo, ur := math.Float32bits(float32(o)), math.Float32bits(float32(recon[i]))
			x := uo ^ ur
			p0[byte(x)]++
			p1[byte(x>>8)]++
			p2[byte(x>>16)]++
			p3[byte(x>>24)]++
			e := int(ur >> 23 & 0xff)
			st.exps[e]++
			t = max(t, bits.Len32(zig32(key32(uo)-key32(ur)))+e)
		}
		st.t = t
		return
	}
	for i, o := range orig {
		uo, ur := math.Float64bits(o), math.Float64bits(recon[i])
		x := uo ^ ur
		for p := range st.planes {
			st.planes[p][byte(x>>(8*p))]++
		}
		e := int(ur >> 52 & 0x7ff)
		st.exps[e]++
		t = max(t, bits.Len64(zig64(key64(uo)-key64(ur)))+e)
	}
	st.t = t
}

// ulpBits is the packed size of the block's distances in bits, Σ w_i.
func (st *blockStats) ulpBits(width int) int {
	total := 0
	for e, n := range st.exps[:maxExp(width)+1] {
		if n != 0 {
			total += int(n) * ulpWidth(st.t, e, width)
		}
	}
	return total
}

// xorEstimate is the XOR layout's expected payload size in bytes: each
// plane at its order-0 entropy plus a table's worth of framing, never above
// the raw plane the writer would fall back to.
func (st *blockStats) xorEstimate(n, width int) int {
	total := 0
	for p := 0; p < width; p++ {
		var coded float64
		for _, c := range st.planes[p] {
			if c != 0 {
				coded -= float64(float64(c) * math.Log2(float64(c)/float64(n)))
			}
		}
		total += min(n, int(math.Ceil(coded/8))+40)
	}
	return total
}

// ulpPayloadSize is a ULP payload's length for Σw_i = nbits.
func ulpPayloadSize(nbits int) int { return ulpHeaderSize + (nbits+7)/8 }

// appendULP appends the ULP payload of orig against recon to dst. t and
// nbits are the block's, from measure and ulpBits over the same pairs.
func appendULP(dst []byte, orig, recon []float64, width, t, nbits int) []byte {
	at := len(dst)
	dst = append(dst, make([]byte, ulpPayloadSize(nbits))...)
	binary.LittleEndian.PutUint16(dst[at:], uint16(t))
	out := dst[at+ulpHeaderSize:]
	recon = recon[:len(orig)]
	var acc uint64 // bits not yet stored, LSB first
	n, pos := 0, 0 // n bits in acc; pos the next byte of out
	put := func(z uint64, w int) {
		acc |= z << n
		if n += w; n >= 64 {
			binary.LittleEndian.PutUint64(out[pos:], acc)
			pos, n = pos+8, n-64
			acc = z >> (w - n) // Go shifts by 64 give 0: nothing carries
		}
	}
	if width == 4 {
		for i, o := range orig {
			ur := math.Float32bits(float32(recon[i]))
			z := zig32(key32(math.Float32bits(float32(o))) - key32(ur))
			put(uint64(z), ulpWidth(t, int(ur>>23&0xff), 4))
		}
	} else {
		for i, o := range orig {
			ur := math.Float64bits(recon[i])
			put(zig64(key64(math.Float64bits(o))-key64(ur)), ulpWidth(t, int(ur>>52&0x7ff), 8))
		}
	}
	for ; n > 0; n -= 8 {
		out[pos] = byte(acc)
		acc >>= 8
		pos++
	}
	return dst
}

// checkULPHead holds a ULP payload's head to what can be checked without
// the reconstruction — present, and a t the width can produce — and returns
// t.
func checkULPHead(payload []byte, width int) (int, error) {
	if len(payload) < ulpHeaderSize {
		return 0, fmt.Errorf("%w: ULP payload of %d bytes", ErrCorrupt, len(payload))
	}
	t := int(binary.LittleEndian.Uint16(payload))
	if t > 8*width+maxExp(width) {
		return 0, fmt.Errorf("%w: ULP width base %d above %d", ErrCorrupt, t, 8*width+maxExp(width))
	}
	return t, nil
}

// ulpTable is a block's field width and mask for each raw exponent of the
// reconstruction: applyULP looks both up instead of clamping t − exp twice
// per value.
type ulpTable struct {
	width [0x800]uint8
	mask  [0x800]uint64
}

// fill sets the table for the block's t at a storage width.
func (tb *ulpTable) fill(t, width int) {
	for e := 0; e <= maxExp(width); e++ {
		w := ulpWidth(t, e, width)
		tb.width[e], tb.mask[e] = uint8(w), 1<<w-1 // Go shifts by 64 give 0
	}
}

// bits is Σ w_i over vals, the block's reconstructions, at a storage width.
func (tb *ulpTable) bits(vals []float64, width int) int {
	n := 0
	if width == 4 {
		for _, v := range vals {
			n += int(tb.width[math.Float32bits(float32(v))>>23&0xff])
		}
		return n
	}
	for _, v := range vals {
		n += int(tb.width[math.Float64bits(v)>>52&0x7ff])
	}
	return n
}

// applyULP adds a ULP payload's distances into vals[lo:hi], where vals is
// the whole block's reconstructions, in key space. payload must reach
// ulpPad bytes past its length within its capacity. The widths are summed
// over all of vals first, and a payload whose length or pad bits disagree
// is refused before any value changes; the unpacking then starts at bit
// Σ_{i<lo} w_i.
func applyULP(tb *ulpTable, vals []float64, payload []byte, width, lo, hi int) error {
	t, err := checkULPHead(payload, width)
	if err != nil {
		return err
	}
	tb.fill(t, width)
	skip := tb.bits(vals[:lo], width)
	nbits := skip + tb.bits(vals[lo:], width)
	if len(payload) != ulpPayloadSize(nbits) {
		return fmt.Errorf("%w: ULP payload of %d bytes for %d bits", ErrCorrupt, len(payload), nbits)
	}
	if tail := nbits % 8; tail != 0 && payload[len(payload)-1]>>tail != 0 {
		return fmt.Errorf("%w: ULP pad bits set", ErrCorrupt)
	}
	buf := payload[ulpHeaderSize : len(payload)+ulpPad]
	pos := skip // bit position in buf
	part := vals[lo:hi]
	if width == 4 {
		for i, v := range part {
			ur := math.Float32bits(float32(v))
			e := ur >> 23 & 0xff
			z := uint32(binary.LittleEndian.Uint64(buf[pos>>3:])>>(pos&7)) & uint32(tb.mask[e])
			pos += int(tb.width[e])
			part[i] = float64(math.Float32frombits(unkey32(key32(ur) + unzig32(z))))
		}
		return nil
	}
	for i, v := range part {
		ur := math.Float64bits(v)
		e := ur >> 52 & 0x7ff
		// One load holds at least 57 bits past pos; a wider field takes its
		// high bits from the next.
		at, sh := pos>>3, uint(pos&7)
		z := binary.LittleEndian.Uint64(buf[at:]) >> sh
		if tb.width[e] > 57 {
			z |= binary.LittleEndian.Uint64(buf[at+8:]) << (64 - sh)
		}
		pos += int(tb.width[e])
		part[i] = math.Float64frombits(unkey64(key64(ur) + unzig64(z&tb.mask[e])))
	}
	return nil
}
