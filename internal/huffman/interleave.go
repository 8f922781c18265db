package huffman

import (
	"errors"
	"fmt"

	"rqm/internal/bitio"
)

// Interleaved multi-stream coding: the symbol sequence is split round-robin
// across K independent bitstreams (symbol i goes to stream i%K), all encoded
// with ONE shared canonical codebook. Decoding (kernel.go) keeps K stream
// windows live in a single loop, so the CPU overlaps the serial
// bit-extraction dependency chains of all K streams — the standard trick
// behind FSE/Huff0-style coders. Ratio cost is only the per-stream byte
// padding (≤ K-1 bytes per chunk); decode throughput gain is the point.

// DefaultStreams is the stream count the compressor uses for interleaved
// entropy coding. Four streams saturate the ILP win on current cores while
// keeping the per-chunk padding overhead negligible.
const DefaultStreams = 4

// MaxStreams bounds the stream count accepted by EncodeInterleaved and
// DecodeInterleaved; the decoder keeps all states on the stack.
const MaxStreams = 16

// ErrBadStreamCount marks an interleave stream count outside 1..MaxStreams.
var ErrBadStreamCount = errors.New("huffman: stream count outside 1..16")

// EncodeInterleaved encodes syms round-robin into k streams sharing this
// codebook, appending through the provided writers (ws[i] must be Reset by
// the caller; len(ws) >= k). lut is an optional dense encode LUT previously
// filled with FillLUT (nil = map lookups, see Encode). Returns one byte
// slice per stream, each zero-padded to a whole byte; the slices alias the
// writers' internal buffers.
func (cb *Codebook) EncodeInterleaved(syms []uint32, k int, lut []uint64, ws []*bitio.Writer) ([][]byte, error) {
	if k < 1 || k > MaxStreams {
		return nil, fmt.Errorf("%w: %d", ErrBadStreamCount, k)
	}
	if len(ws) < k {
		return nil, fmt.Errorf("huffman: %d writers for %d streams", len(ws), k)
	}
	if lut != nil {
		// One packer per stream; the earliest stop is the serial pass's.
		bad := len(syms)
		for s := 0; s < k && s < len(syms); s++ {
			bad = min(bad, s+ws[s].WriteCodes(syms[s:], k, lut))
		}
		if bad < len(syms) {
			return nil, fmt.Errorf("huffman: symbol %d outside LUT of %d entries", syms[bad], len(lut))
		}
	} else {
		index := cb.positions()
		for i, s := range syms {
			j, ok := index[s]
			if !ok {
				return nil, fmt.Errorf("huffman: symbol %d not in codebook", s)
			}
			ws[i%k].WriteBits(uint64(cb.codes[j]), uint(cb.lengths[j]))
		}
	}
	out := make([][]byte, k)
	for s := 0; s < k; s++ {
		out[s] = ws[s].Bytes()
	}
	return out, nil
}
