package compressor

import (
	"encoding/binary"
	"errors"
	"fmt"

	"rqm/internal/ans"
	"rqm/internal/grid"
	"rqm/internal/huffman"
)

// EntropyKind selects the entropy stage coding the quantization symbols.
// The kind is recorded in the container (version 2), so decoding is always
// self-describing; the serial Huffman default keeps emitting the version 1
// container byte-for-byte.
type EntropyKind int

const (
	// EntropyHuffman is the serial single-stream canonical Huffman coder
	// (the SZ default and this package's historical format).
	EntropyHuffman EntropyKind = iota
	// EntropyInterleaved splits the symbols round-robin across
	// huffman.DefaultStreams bitstreams sharing one codebook, so decode
	// runs that many independent bit-extraction chains in one loop.
	EntropyInterleaved
	// EntropyTANS codes the symbols with a table-based asymmetric numeral
	// system (2 interleaved states), reaching fractional bits/symbol on
	// skewed histograms where Huffman is pinned at 1 bit.
	EntropyTANS
)

// String names the entropy kind.
func (e EntropyKind) String() string {
	switch e {
	case EntropyHuffman:
		return "huffman"
	case EntropyInterleaved:
		return "huffman-ilv"
	case EntropyTANS:
		return "tans"
	}
	return fmt.Sprintf("EntropyKind(%d)", int(e))
}

// entropyEnc is one encoded entropy stage, ready for container assembly.
// kind may differ from the requested kind (tANS falls back to serial
// Huffman when the alphabet outgrows the largest table).
type entropyEnc struct {
	kind     EntropyKind
	codebook []byte // serialized Huffman codebook or ANS table
	raw      []byte // pre-lossless payload blob
	bits     uint64 // entropy-coded bits, excluding padding and framing
	param    uint8  // stream count (interleaved) / state count (tANS)
	states   [ans.NumStates]uint32
	bitLen   uint64
}

// histogram is the symbol histogram Compress hands the entropy stage:
// counts indexed by symbol, touched listing each counted symbol once.
type histogram struct {
	counts  []int64
	touched []uint32
}

// encodeEntropy runs the selected entropy coder over the symbol stream.
// encLUT is the dense encode LUT scratch. The returned codebook and raw blob
// alias arena memory; callers must finish with them before the arena
// releases.
func encodeEntropy(a *arena, kind EntropyKind, syms []uint32, h *histogram, encLUT []uint64) (*entropyEnc, error) {
	switch kind {
	case EntropyHuffman, EntropyInterleaved:
		cb, err := huffman.BuildDense(h.counts, h.touched)
		if err != nil {
			return nil, err
		}
		defer cb.Release()
		a.cbBuf = cb.AppendSerialized(a.cbBuf[:0])
		enc := &entropyEnc{kind: kind, codebook: a.cbBuf}
		cb.FillLUT(encLUT)
		if kind == EntropyHuffman {
			bw := a.bitWriter()
			if err := cb.EncodeLUT(bw, syms, encLUT); err != nil {
				return nil, err
			}
			enc.bits = bw.Bits()
			enc.raw = bw.Bytes()
			return enc, nil
		}
		k := huffman.DefaultStreams
		ws := a.bitWriters(k)
		streams, err := cb.EncodeInterleaved(syms, k, encLUT, ws)
		if err != nil {
			return nil, err
		}
		enc.param = uint8(k)
		for _, w := range ws[:k] {
			enc.bits += w.Bits()
		}
		// Blob: K little-endian uint32 stream lengths, then the streams.
		total := 4 * k
		for _, s := range streams {
			total += len(s)
		}
		blob := a.blob(total)
		for i, s := range streams {
			binary.LittleEndian.PutUint32(blob[4*i:], uint32(len(s)))
		}
		off := 4 * k
		for _, s := range streams {
			off += copy(blob[off:], s)
		}
		enc.raw = blob
		return enc, nil

	case EntropyTANS:
		tab, err := ans.BuildDense(h.counts, h.touched)
		if errors.Is(err, ans.ErrAlphabetTooLarge) {
			// The alphabet cannot be normalized into the largest table;
			// code this field serially instead. The container records what
			// was actually used, so decode needs no knowledge of the fall
			// back.
			return encodeEntropy(a, EntropyHuffman, syms, h, encLUT)
		}
		if err != nil {
			return nil, err
		}
		defer tab.Release()
		enc := &entropyEnc{kind: EntropyTANS, codebook: tab.Serialize(), param: ans.NumStates}
		lut := a.ansLUT(int(tab.MaxSymbol()) + 1)
		tab.FillLUT(lut)
		stream, states, bits, err := tab.Encode(a.ansBuf[:0], syms, lut)
		if err != nil {
			return nil, err
		}
		a.ansBuf = stream // hand the (possibly grown) buffer back to the arena
		enc.raw = stream
		enc.bits = bits
		enc.bitLen = bits
		enc.states = states
		return enc, nil
	}
	return nil, fmt.Errorf("compressor: unknown entropy kind %d", int(kind))
}

// decodeEntropy reconstructs the symbol stream from a parsed container's
// entropy section. syms must be sized to the symbol count.
func decodeEntropy(enc *entropyEnc, rawPayload []byte, syms []uint32) error {
	switch enc.kind {
	case EntropyHuffman:
		cb, _, err := huffman.Parse(enc.codebook)
		if err != nil {
			return err
		}
		defer cb.Release()
		return cb.DecodeSerial(rawPayload, syms)

	case EntropyInterleaved:
		cb, _, err := huffman.Parse(enc.codebook)
		if err != nil {
			return err
		}
		defer cb.Release()
		k := int(enc.param)
		if k < 1 || k > huffman.MaxStreams {
			return fmt.Errorf("compressor: interleaved container declares %d streams", k)
		}
		c := grid.NewCursor(rawPayload)
		lens := grid.NewCursor(c.Take(4 * k))
		streams := make([][]byte, k)
		for i := range streams {
			streams[i] = c.Take(int(lens.U32()))
		}
		if err := c.Err(); err != nil {
			return err
		}
		if c.Len() != 0 {
			return fmt.Errorf("compressor: %d trailing bytes after interleaved streams", c.Len())
		}
		return cb.DecodeInterleaved(streams, syms)

	case EntropyTANS:
		if enc.param != ans.NumStates {
			return fmt.Errorf("compressor: tANS container declares %d states, this build decodes %d",
				enc.param, ans.NumStates)
		}
		tab, _, err := ans.Parse(enc.codebook)
		if err != nil {
			return err
		}
		defer tab.Release()
		return tab.Decode(rawPayload, enc.states, enc.bitLen, syms)
	}
	return fmt.Errorf("compressor: unknown entropy kind %d", int(enc.kind))
}
