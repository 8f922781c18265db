// Package bitio provides MSB-first bit-granular writers and readers over
// byte buffers. It is the substrate for the Huffman coders: codes are
// written most-significant-bit first so that canonical Huffman prefixes
// sort lexicographically in the bit stream.
//
// # Bitstream invariants
//
// Every consumer of these streams — the Huffman decode kernel (one Window
// per stream, serial or interleaved), the transform codec's class-code-plus-
// raw-bits reader, and the container fuzzers — relies on the following
// contracts:
//
//   - Bit order. WriteBits emits the low `width` bits of v starting with
//     the most significant; a stream written as WriteBits(a, la),
//     WriteBits(b, lb) reads back with the bits of a strictly before the
//     bits of b. width must be in [0, 57]: wider fields are split by the
//     caller (the 57-bit bound keeps the accumulator shift-safe).
//
//   - Padding. Writer.Bytes flushes any partial final byte zero-padded on
//     the right (toward the LSB). Padding is only ever zeros and only ever
//     shorter than one byte, so a decoder that knows the symbol count can
//     always distinguish real data from padding; decoders that match codes
//     in the tail must verify the match fits in the real bits that remain
//     (see Window). Writer.Bits reports written bits excluding padding.
//
//   - Window contract. A Window keeps the loaded, unread bits left-aligned
//     in Bits and counts the real ones in N; past the end of Buf the bits
//     below N are zeros, so a peek wider than what remains reads as if the
//     stream were zero-padded on the right. A table-driven decoder must
//     reject a code of length L when L > N after a Refill — a match that
//     extends into padding is not a match. Reader is a Window behind
//     ReadBits; Reader.Window lends it to a bulk decoder and takes it back
//     wherever the decoder stopped.
//
//   - Truncation. All reads past the end of real data return errors
//     wrapping ErrUnexpectedEOF; no read panics and no read goes out of
//     bounds, whatever the input bytes.
package bitio
