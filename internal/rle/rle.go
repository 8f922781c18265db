// Package rle implements the zero-run-length encoding that the paper uses
// to model (and approximate) the optional lossless stage after Huffman
// coding: after an effective predictor, the Huffman stream is dominated by
// the 1-bit code of the zero quantization symbol, so long runs of zero
// *bytes* appear in the packed stream; everything else is passed through.
//
// Format: a non-zero byte is emitted verbatim; a run of n >= 1 zero bytes is
// emitted as 0x00 followed by uvarint(n-1).
package rle

import (
	"encoding/binary"
	"errors"
	"slices"
)

// Encode compresses src with zero-byte run-length encoding.
func Encode(src []byte) []byte {
	out := make([]byte, 0, len(src)/2+16)
	var tmp [binary.MaxVarintLen64]byte
	i := 0
	for i < len(src) {
		b := src[i]
		if b != 0 {
			out = append(out, b)
			i++
			continue
		}
		j := i
		for j < len(src) && src[j] == 0 {
			j++
		}
		run := j - i
		out = append(out, 0)
		k := binary.PutUvarint(tmp[:], uint64(run-1))
		out = append(out, tmp[:k]...)
		i = j
	}
	return out
}

// Decode reverses Encode. maxLen bounds the output size as a safety check
// against corrupted counts (0 means no bound).
func Decode(src []byte, maxLen int) ([]byte, error) {
	return AppendDecode(make([]byte, 0, len(src)*2), src, maxLen)
}

// AppendDecode is Decode appending the decoded bytes to dst, so a caller can
// decode into a buffer it reuses; maxLen bounds the bytes appended.
func AppendDecode(dst, src []byte, maxLen int) ([]byte, error) {
	out, base := dst, len(dst)
	i := 0
	for i < len(src) {
		b := src[i]
		if b != 0 {
			out = append(out, b)
			i++
			continue
		}
		i++
		n, k := binary.Uvarint(src[i:])
		if k <= 0 {
			return nil, errors.New("rle: truncated run length")
		}
		i += k
		run := int(n) + 1
		if run < 0 || (maxLen > 0 && len(out)-base+run > maxLen) {
			return nil, errors.New("rle: run overflows expected size")
		}
		out = slices.Grow(out, run)
		end := len(out) + run
		clear(out[len(out):end])
		out = out[:end]
	}
	return out, nil
}
