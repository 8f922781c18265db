package bitio

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrUnexpectedEOF is returned when a read runs past the end of the stream.
var ErrUnexpectedEOF = errors.New("bitio: unexpected end of stream")

// Writer accumulates bits MSB-first into an internal byte buffer.
// The zero value is ready to use.
type Writer struct {
	buf  []byte
	cur  uint64 // bits pending, left-aligned within the low `n` bits
	n    uint   // number of pending bits in cur (0..63)
	bits uint64 // total bits written
}

// NewWriter returns a Writer with capacity pre-allocated for sizeHint bytes.
func NewWriter(sizeHint int) *Writer {
	if sizeHint < 0 {
		sizeHint = 0
	}
	return &Writer{buf: make([]byte, 0, sizeHint)}
}

// WriteBits writes the low `width` bits of v, most significant bit first.
// width must be in [0, 57]; wider values must be split by the caller.
func (w *Writer) WriteBits(v uint64, width uint) {
	if width == 0 {
		return
	}
	if width > 57 {
		panic(fmt.Sprintf("bitio: WriteBits width %d > 57", width))
	}
	v &= (1 << width) - 1
	w.cur = w.cur<<width | v
	w.n += width
	w.bits += uint64(width)
	for w.n >= 8 {
		w.n -= 8
		w.buf = append(w.buf, byte(w.cur>>w.n))
	}
}

// Bits reports the total number of bits written so far.
func (w *Writer) Bits() uint64 { return w.bits }

// Bytes flushes any partial byte (zero-padded on the right) and returns the
// underlying buffer. The Writer remains usable; further writes continue after
// the padding, so call Bytes only when the stream is complete.
func (w *Writer) Bytes() []byte {
	if w.n > 0 {
		pad := 8 - w.n
		w.cur <<= pad
		w.buf = append(w.buf, byte(w.cur))
		w.cur = 0
		w.n = 0
	}
	return w.buf
}

// Reset truncates the writer to empty, retaining the allocated buffer.
func (w *Writer) Reset() {
	w.buf = w.buf[:0]
	w.cur = 0
	w.n = 0
	w.bits = 0
}

// Window is the unread end of an MSB-first bit stream, in the shape a decode
// loop keeps in registers: the bits already loaded from Buf sit left-aligned
// in Bits, so the next code is its top bits whatever the code's length, and
// consuming l bits is Bits <<= l, N -= l.
//
// The top N bits of Bits are stream bits [8·Pos−N, 8·Pos). Below them Bits
// holds zeros or — after a word refill — the leading bits of Buf[Pos], which
// the next refill ORs in again unchanged; once Pos reaches len(Buf) they are
// all zeros, so a peek past the end of the stream reads as zero padding and
// N says how much of it is real.
type Window struct {
	Buf  []byte
	Pos  int // next byte of Buf not yet counted in N
	Bits uint64
	N    uint
}

// Refill loads whole bytes until N >= 57 or Buf is exhausted: one big-endian
// word load while eight bytes remain, bytewise over the stream's tail.
func (w *Window) Refill() {
	if w.Pos+8 <= len(w.Buf) {
		k := (64 - w.N) >> 3
		w.Bits |= binary.BigEndian.Uint64(w.Buf[w.Pos:]) >> w.N
		w.Pos += int(k)
		w.N += k << 3
		return
	}
	for w.N <= 56 && w.Pos < len(w.Buf) {
		w.Bits |= uint64(w.Buf[w.Pos]) << (56 - w.N)
		w.Pos++
		w.N += 8
	}
}

// Reader consumes bits MSB-first from a byte slice.
type Reader struct {
	w Window
}

// NewReader returns a Reader over buf. The Reader does not copy buf.
func NewReader(buf []byte) *Reader {
	return &Reader{w: Window{Buf: buf}}
}

// Window exposes the reader's position to a bulk decoder (the Huffman
// kernel), which consumes bits from it directly; the reader carries on from
// wherever the decoder left the window.
func (r *Reader) Window() *Window { return &r.w }

// ReadBits reads `width` bits MSB-first. width must be in [0, 57].
func (r *Reader) ReadBits(width uint) (uint64, error) {
	if width == 0 {
		return 0, nil
	}
	if width > 57 {
		panic(fmt.Sprintf("bitio: ReadBits width %d > 57", width))
	}
	w := &r.w
	if w.N < width {
		if w.Refill(); w.N < width {
			return 0, ErrUnexpectedEOF
		}
	}
	v := w.Bits >> (64 - width)
	w.Bits <<= width
	w.N -= width
	return v, nil
}

// BitsRead reports the number of bits consumed so far.
func (r *Reader) BitsRead() uint64 { return uint64(r.w.Pos)*8 - uint64(r.w.N) }
