// Package ans implements a table-based asymmetric numeral system (tANS)
// coder: the entropy stage that reaches fractional bits/symbol on the
// heavily skewed histograms SZ-style quantization produces, where a Huffman
// coder is pinned at 1 bit/symbol. One encode loop and one decode loop,
// generic over the symbol type, serve uint32 quantization codes
// (Encode/Decode) and the residual layer's byte planes
// (EncodeBytes/DecodeBytes, with BuildDense taking a [256] histogram).
//
// # Construction
//
// Build normalizes the symbol histogram to sum exactly 2^tableLog
// (tableLog in [MinTableLog, MaxTableLog], grown to fit the alphabet;
// larger alphabets return ErrAlphabetTooLarge) by largest remainder with a
// deterministic adjustment order, then spreads symbols over the table with
// the coprime step size/2 + size/8 + 3. Every build from the same
// histogram yields the same table, so Serialize/Parse need only carry the
// normalized counts ([tableLog][uvarint n][uvarint symbol-delta, uvarint
// count]...), which Parse fully revalidates (sum, monotonicity, bounds)
// before reconstructing.
//
// # Bitstream invariants
//
// The coded stream is NOT a bitio stream; it has its own contract:
//
//   - Two interleaved states. Symbols alternate lanes by index parity
//     (lane = i % NumStates); each lane is an independent rANS-style state
//     x in [size, 2·size). Two lanes give the decoder two independent
//     dependency chains.
//
//   - Backward encode, forward decode (LIFO). Encode walks the symbols
//     from last to first, pushing nb-bit groups; Decode walks symbols
//     first to last, reading the bit groups in reverse stream order. The
//     final encoder states and the exact coded bit count are returned by
//     Encode and must be stored out of band (the compressor's container
//     records both); the stream itself is not self-terminating.
//
//   - Bit packing. Bit groups are packed LSB-first into a little-endian
//     accumulator flushed 32 bits at a time (byte for byte what a
//     byte-wise flush writes), so the decoder's backward read is an
//     unaligned little-endian load ending at bitpos, kept as a 64-bit
//     window between reloads. The final partial byte is zero-padded toward
//     the MSB; the stored bit count excludes the padding.
//
//   - Precomputed steps. The encoder's per-symbol bit count and next state
//     come from a transform fixed at table build (see symTransform), not
//     from a loop over the state; it selects the unique bit count that
//     renormalizes the state, so the stream does not depend on how the
//     count is found. ans_test.go keeps the counted-loop coder as the
//     oracle the kernel must match bit for bit.
//
//   - Validation. Decode checks both initial states against the table
//     size and every read against the declared bit count: corrupt states
//     return ErrCorrupt, an exhausted stream returns ErrTruncated, and no
//     input makes Decode panic or read out of bounds.
//
// Tables are pooled (Release), build and parse work inside the pooled shell,
// and the encode side uses a dense LUT (FillLUT) — the symbol index map is
// built only if an Encode is handed no LUT — so steady-state coding
// allocates nothing.
package ans
