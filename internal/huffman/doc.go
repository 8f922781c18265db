// Package huffman implements a canonical Huffman coder over uint32 symbols,
// as used on SZ quantization codes, in two stream shapes: the classic
// serial single-stream coder and an interleaved multi-stream variant that
// trades nothing in ratio for a large decode-throughput win.
//
// # Canonical form
//
// The codebook serializes compactly (delta-varint symbols + length bytes)
// and decoding is canonical (per-length first-code tables), so the encoder
// and decoder agree on nothing but the serialized lengths. Codes are
// written MSB-first through bitio, which makes canonical prefixes sort
// lexicographically in the stream; codes are at most MaxCodeLen (32) bits.
// There is one decoder (kernel.go) for every stream shape: each stream is
// a bitio.Window, a one-shot prefix table `decodeTableBits` wide resolves
// codes up to 11 bits in a single lookup, and a longer code is found by
// comparing the window against the per-length code limits.
//
// # Codebook lifetime
//
// Build, BuildDense and Parse fill a pooled shell; a caller coding at chunk
// rate hands it back with Release and allocates nothing in steady state.
// Decode, DecodeSerial, DecodeInterleaved, FillLUT, EncodeLUT and
// AppendSerialized only read the codebook and may run concurrently on one.
// Encode and EncodeInterleaved without a LUT go through a symbol index
// built on first use: concurrent callers of those on one Codebook need a
// lock.
//
// # Stream-interleave order
//
// EncodeInterleaved splits the symbol sequence round-robin across k
// streams sharing ONE codebook: symbol i goes to stream i%k, in input
// order within each stream. DecodeInterleaved reproduces exactly that
// order — out[i] is the next undecoded symbol of stream i%k — so the
// interleave is fully determined by (n, k) and carries no index side
// channel. Stream s holds the ⌈(n−s)/k⌉ symbols i < n with i%k == s.
//
// # Padding rules
//
// Every stream — serial or interleaved — is independently zero-padded to a
// whole byte (bitio.Writer.Bytes). Interleaved streams are framed
// externally (the compressor stores k uint32 byte lengths); inside a
// stream the decoder accepts a match in the padded tail only when the
// matched code length fits in the real bits that remain, per the
// bitio.Window contract. Truncated or corrupt streams surface typed
// errors (wrapping bitio.ErrUnexpectedEOF, or "invalid code" when more
// than the longest code's worth of real bits matches nothing); the decoder
// never panics and never reads out of bounds.
package huffman
