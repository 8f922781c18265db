// Package codec defines the compressor-agnostic abstraction the
// ratio-quality model is built around: a Codec interface every
// error-bounded backend implements, one closed, read-only set of codecs
// (ByID, ByName, All), and a single self-describing container envelope so
// any payload routes to the right backend by inspection (see container.go).
// The tuner use-cases and the public rqm.Engine operate on this interface
// only.
//
// # Codecs
//
// The set is fixed at build time; nothing registers a codec at run time.
// Wire IDs are stable forever — never reuse or renumber a published ID:
//
//	1  prediction       SZ3-style pipeline, serial Huffman entropy stage
//	2  transform        ZFP-style transform codec
//	3  prediction-ilv   prediction pipeline, interleaved multi-stream Huffman
//	4  prediction-tans  prediction pipeline, tANS entropy stage
//
// The entropy variants are separate codec identities rather than an
// Options field: the wire ID alone pins how a chunk body must be decoded,
// so archives mix codecs freely and readers need no side channel
// (DESIGN.md §11).
//
// # Container invariants
//
// Envelope and chunked-container parsing guarantees, pinned by
// container_test.go and the fuzzers:
//
//   - Every parse failure wraps exactly one typed error (ErrTruncated,
//     ErrBadMagic, ErrUnsupportedVersion, ErrUnknownCodec, ErrCorrupt,
//     ErrChecksum); no input makes a parser panic or read out of bounds.
//   - RQCE is the only container magic. Envelopes and chunk records carry a
//     codec ID byte that routes the native payload (RQMC / RQZF) inside
//     them; a bare native payload is not a container and fails with
//     ErrBadMagic.
//   - Both container grammars have one sequential parser, Records: a v1
//     envelope reads as a stream of one record (its payload, no CRC), and
//     Open, Inspect, Decompress and the stream.Reader are loops over it with
//     no branch on the version. A chunked stream is also read through its
//     index, by LoadIndex and ReadChunkAt alone (an envelope has no index);
//     both hold every stored copy of a chunk's geometry and bound — record
//     head, trailer entry, footer offset — against the others, and a
//     container on which they disagree is ErrCorrupt to every reader.
//   - Chunk bodies in the chunked stream container are per-chunk
//     independent: each record names its codec ID, is CRC-checked before
//     decode, and decodes with no state from neighboring chunks.
package codec
