package huffman

import (
	"encoding/binary"
	"fmt"

	"rqm/internal/bitio"
)

// The decode kernel. Every stream — the serial one, each of an interleaved
// set, a bitio.Reader's — is a bitio.Window: the unread bits left-aligned in
// a 64-bit word, so the next code is the word's top bits whatever its
// length. One symbol costs a table lookup on the top tabBits bits and a
// shift; a code longer than the table is found by comparing the top 32 bits
// against the per-length limits, one compare per length. A word refill
// tops the window up to >= 57 bits, enough for runSymbols table lookups.
//
// Two loops share that step. run1 and run4 are the unchecked ones: they run
// only while every stream has eight bytes left to load, so every bit they
// look at is real, and stop — consuming nothing — at whatever they cannot
// take. Step is the checked one: it refills bytewise over a stream's tail,
// accepts a match only when it fits in the real bits that remain (a match
// reaching into the zero padding is a truncated stream, not a symbol) and
// names the failure. The drivers alternate: run as far as possible, take one
// checked round, run again.

// runSymbols is how many table lookups one refill covers: a refill leaves
// at least 57 bits and a table code is at most decodeTableBits long.
const runSymbols = 57 / decodeTableBits

// Decode reads len(out) symbols from r. It consumes r's window directly and
// leaves it just past the last symbol, so reads of raw bits may be
// interleaved with it. Truncated or corrupt streams return an error wrapping
// bitio.ErrUnexpectedEOF or naming an invalid code; the decoder never reads
// past the stream and never panics.
func (cb *Codebook) Decode(r *bitio.Reader, out []uint32) error {
	return cb.decode1(r.Window(), out)
}

// DecodeSerial is Decode over the bytes of a whole single-stream payload.
func (cb *Codebook) DecodeSerial(stream []byte, out []uint32) error {
	return cb.decode1(&bitio.Window{Buf: stream}, out)
}

// DecodeInterleaved reads len(out) symbols from k round-robin streams
// encoded with EncodeInterleaved against this codebook: out[i] comes from
// streams[i%k]. It fails as Decode does.
func (cb *Codebook) DecodeInterleaved(streams [][]byte, out []uint32) error {
	k := len(streams)
	if k < 1 || k > MaxStreams {
		return fmt.Errorf("%w: %d", ErrBadStreamCount, k)
	}
	if k == 1 {
		return cb.DecodeSerial(streams[0], out)
	}
	var ws [MaxStreams]bitio.Window
	for s := range streams {
		ws[s].Buf = streams[s]
	}
	for i := 0; i < len(out); {
		if k == DefaultStreams {
			if i = cb.run4((*[DefaultStreams]bitio.Window)(ws[:]), out, i); i == len(out) {
				break
			}
		}
		// One checked round, which clears whatever stopped the run.
		for stop := min(i+k, len(out)); i < stop; i++ {
			sym, err := cb.Step(&ws[i%k], i)
			if err != nil {
				return err
			}
			out[i] = sym
		}
	}
	return nil
}

// decode1 is the single-stream driver.
func (cb *Codebook) decode1(w *bitio.Window, out []uint32) error {
	for i := 0; i < len(out); i++ {
		if len(out)-i >= runSymbols {
			if i = cb.run1(w, out, i); i == len(out) {
				break
			}
		}
		sym, err := cb.Step(w, i)
		if err != nil {
			return err
		}
		out[i] = sym
	}
	return nil
}

// resolve finds the code longer than the table that the window bits start
// with: its length and symbol, or length 0 when no code of the book is a
// prefix of them. Canonical codes ascend with length when left-aligned, so
// the first length whose limit exceeds the prefix is the code's.
func (cb *Codebook) resolve(bits uint64) (l uint, sym uint32) {
	top := bits >> 32
	for l = cb.tabBits + 1; l <= uint(cb.maxLen); l++ {
		if top < cb.limit[l] {
			return l, cb.symbols[cb.firstIndex[l]+int32(uint32(top>>(32-l))-cb.firstCode[l])]
		}
	}
	return 0, 0
}

// Step decodes one symbol (out[i], for the error text) from w with every
// check on. Called on its own, it lets a caller read raw bits between
// symbols off the same window (the transform codec).
func (cb *Codebook) Step(w *bitio.Window, i int) (uint32, error) {
	if w.N <= MaxCodeLen {
		w.Refill()
	}
	var l uint
	var sym uint32
	if e := cb.dtab[w.Bits>>(64-cb.tabBits)]; e != 0 {
		l, sym = uint(e&63), uint32(e>>8)
	} else {
		l, sym = cb.resolve(w.Bits)
	}
	if l == 0 || l > w.N {
		// Nothing matches, or the match needs bits the stream does not have.
		// With more than maxLen real bits in hand no longer read could help.
		if l == 0 && w.N > uint(cb.maxLen) {
			return 0, fmt.Errorf("huffman: invalid code at symbol %d", i)
		}
		return 0, fmt.Errorf("huffman: truncated stream at symbol %d: %w", i, bitio.ErrUnexpectedEOF)
	}
	w.Bits <<= l
	w.N -= l
	return sym, nil
}

// run1 is the single-stream unchecked loop: one word refill, then up to
// runSymbols table lookups. A code longer than the table is resolved in
// place once the window holds MaxCodeLen bits. It returns the index of the
// first symbol it left undecoded: the end of out, the stream's last words, or
// a prefix no code matches (Step says which).
func (cb *Codebook) run1(w *bitio.Window, out []uint32, i int) int {
	dtab := cb.dtab
	shift := (64 - cb.tabBits) & 63
	buf, pos, bits, n := w.Buf, w.Pos, w.Bits, w.N
	for i+runSymbols <= len(out) && pos+8 <= len(buf) {
		k := (64 - n) >> 3
		bits |= binary.BigEndian.Uint64(buf[pos:]) >> n
		pos += int(k)
		n += k << 3
		round := out[i : i+runSymbols : i+runSymbols]
		j := 0
		for ; j < runSymbols; j++ {
			e := dtab[bits>>shift]
			if e == 0 {
				break
			}
			round[j] = uint32(e >> 8)
			bits <<= e & 63
			n -= uint(e & 63)
		}
		i += j
		if j < runSymbols && n >= MaxCodeLen {
			l, sym := cb.resolve(bits)
			if l == 0 {
				break
			}
			out[i] = sym
			i++
			bits <<= l
			n -= l
		}
	}
	w.Pos, w.Bits, w.N = pos, bits, n
	return i
}

// run4 is the four-stream unchecked loop. Starting at symbol index i (a
// multiple of 4, so it begins on stream 0) it refills all four windows, then
// decodes up to runSymbols rounds of four, peeking all four streams and
// committing a round only if every code resolved in the table, so the four
// bit-extraction dependency chains overlap. It returns the index of the
// first undecoded symbol (again a multiple of 4) and never consumes bits
// past it.
func (cb *Codebook) run4(ws *[DefaultStreams]bitio.Window, out []uint32, i int) int {
	dtab := cb.dtab
	shift := (64 - cb.tabBits) & 63
	b0, b1, b2, b3 := ws[0].Buf, ws[1].Buf, ws[2].Buf, ws[3].Buf
	p0, p1, p2, p3 := ws[0].Pos, ws[1].Pos, ws[2].Pos, ws[3].Pos
	a0, a1, a2, a3 := ws[0].Bits, ws[1].Bits, ws[2].Bits, ws[3].Bits
	n0, n1, n2, n3 := ws[0].N, ws[1].N, ws[2].N, ws[3].N
refill:
	for i+4*runSymbols <= len(out) && p0+8 <= len(b0) && p1+8 <= len(b1) && p2+8 <= len(b2) && p3+8 <= len(b3) {
		k := (64 - n0) >> 3
		a0 |= binary.BigEndian.Uint64(b0[p0:]) >> n0
		p0 += int(k)
		n0 += k << 3
		k = (64 - n1) >> 3
		a1 |= binary.BigEndian.Uint64(b1[p1:]) >> n1
		p1 += int(k)
		n1 += k << 3
		k = (64 - n2) >> 3
		a2 |= binary.BigEndian.Uint64(b2[p2:]) >> n2
		p2 += int(k)
		n2 += k << 3
		k = (64 - n3) >> 3
		a3 |= binary.BigEndian.Uint64(b3[p3:]) >> n3
		p3 += int(k)
		n3 += k << 3
		for range runSymbols {
			e0 := dtab[a0>>shift]
			e1 := dtab[a1>>shift]
			e2 := dtab[a2>>shift]
			e3 := dtab[a3>>shift]
			if e0 == 0 || e1 == 0 || e2 == 0 || e3 == 0 {
				break refill
			}
			a0 <<= e0 & 63
			a1 <<= e1 & 63
			a2 <<= e2 & 63
			a3 <<= e3 & 63
			n0 -= uint(e0 & 63)
			n1 -= uint(e1 & 63)
			n2 -= uint(e2 & 63)
			n3 -= uint(e3 & 63)
			out[i] = uint32(e0 >> 8)
			out[i+1] = uint32(e1 >> 8)
			out[i+2] = uint32(e2 >> 8)
			out[i+3] = uint32(e3 >> 8)
			i += 4
		}
	}
	ws[0].Pos, ws[0].Bits, ws[0].N = p0, a0, n0
	ws[1].Pos, ws[1].Bits, ws[1].N = p1, a1, n1
	ws[2].Pos, ws[2].Bits, ws[2].N = p2, a2, n2
	ws[3].Pos, ws[3].Bits, ws[3].N = p3, a3, n3
	return i
}
