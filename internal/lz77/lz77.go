// Package lz77 is a self-contained dictionary coder standing in for the
// Zstandard stage of SZ-style pipelines (the paper's "optional lossless
// encoder"). It is a greedy hash-chain LZ77 with a 64 KiB window.
//
// Token format:
//
//	0xxxxxxx                literal run of (x+1) bytes, followed by the bytes
//	1xxxxxxx dist16         match of length (x + MinMatch), distance 1..65535
//
// All multi-byte integers are little-endian.
package lz77

import (
	"encoding/binary"
	"errors"
	"sync"
)

const (
	// MinMatch is the shortest encodable match.
	MinMatch = 4
	// MaxMatch is the longest encodable match (127 + MinMatch).
	MaxMatch = 127 + MinMatch
	// maxLiteralRun is the longest literal run per token.
	maxLiteralRun = 128
	windowSize    = 1 << 16
	hashBits      = 15
	maxChain      = 32
)

func hash4(b []byte) uint32 {
	v := binary.LittleEndian.Uint32(b)
	return (v * 2654435761) >> (32 - hashBits)
}

// matcher is the encoder's hash-chain state: head maps a 4-byte hash to the
// latest position holding it, prev links each position to the one before it
// in the same chain. Pooled, so a caller coding many small inputs does not
// pay 128 KiB of head plus 4 bytes per input byte each time.
type matcher struct {
	head [1 << hashBits]int32
	prev []int32
}

var matcherPool = sync.Pool{New: func() interface{} { return new(matcher) }}

// Encode compresses src. The output is self-delimiting given the original
// length (see Decode).
func Encode(src []byte) []byte {
	return AppendEncode(make([]byte, 0, len(src)/2+16), src)
}

// AppendEncode is Encode appending to dst.
func AppendEncode(dst, src []byte) []byte {
	n := len(src)
	if n == 0 {
		return dst
	}
	m := matcherPool.Get().(*matcher)
	defer matcherPool.Put(m)
	if cap(m.prev) < n {
		m.prev = make([]int32, n)
	}
	head, prev := &m.head, m.prev[:n]
	for i := range head {
		head[i] = -1
	}
	litStart := 0
	flushLiterals := func(end int) {
		for litStart < end {
			run := end - litStart
			if run > maxLiteralRun {
				run = maxLiteralRun
			}
			dst = append(dst, byte(run-1))
			dst = append(dst, src[litStart:litStart+run]...)
			litStart += run
		}
	}
	insert := func(i int) {
		if i+MinMatch <= n {
			h := hash4(src[i:])
			prev[i] = head[h]
			head[h] = int32(i)
		}
	}
	i := 0
	for i < n {
		bestLen, bestDist := 0, 0
		if i+MinMatch <= n {
			h := hash4(src[i:])
			cand := head[h]
			for chain := 0; cand >= 0 && chain < maxChain; chain++ {
				c := int(cand)
				if i-c >= windowSize {
					break
				}
				// Quick reject on the byte after the current best.
				if bestLen > 0 && (c+bestLen >= n || i+bestLen >= n || src[c+bestLen] != src[i+bestLen]) {
					cand = prev[c]
					continue
				}
				l := 0
				maxL := n - i
				if maxL > MaxMatch {
					maxL = MaxMatch
				}
				for l < maxL && src[c+l] == src[i+l] {
					l++
				}
				if l > bestLen {
					bestLen, bestDist = l, i-c
					if l == MaxMatch {
						break
					}
				}
				cand = prev[c]
			}
		}
		if bestLen >= MinMatch {
			flushLiterals(i)
			dst = append(dst, 0x80|byte(bestLen-MinMatch))
			var d [2]byte
			binary.LittleEndian.PutUint16(d[:], uint16(bestDist))
			dst = append(dst, d[0], d[1])
			end := i + bestLen
			for ; i < end; i++ {
				insert(i)
			}
			litStart = i
			continue
		}
		insert(i)
		i++
	}
	flushLiterals(n)
	return dst
}

// Decode decompresses to exactly dstLen bytes.
func Decode(src []byte, dstLen int) ([]byte, error) {
	out := make([]byte, dstLen)
	if err := DecodeInto(out, src); err != nil {
		return nil, err
	}
	return out, nil
}

// DecodeInto decompresses src into dst, which it must fill exactly.
func DecodeInto(dst, src []byte) error {
	n := 0
	i := 0
	for i < len(src) {
		tok := src[i]
		i++
		if tok&0x80 == 0 {
			run := int(tok) + 1
			if i+run > len(src) {
				return errors.New("lz77: truncated literal run")
			}
			if run > len(dst)-n {
				return errLength
			}
			n += copy(dst[n:], src[i:i+run])
			i += run
			continue
		}
		l := int(tok&0x7F) + MinMatch
		if i+2 > len(src) {
			return errors.New("lz77: truncated match")
		}
		dist := int(binary.LittleEndian.Uint16(src[i:]))
		i += 2
		if dist == 0 || dist > n {
			return errors.New("lz77: invalid match distance")
		}
		if l > len(dst)-n {
			return errLength
		}
		// Byte by byte: a match may overlap the bytes it is producing.
		for end := n + l; n < end; n++ {
			dst[n] = dst[n-dist]
		}
	}
	if n != len(dst) {
		return errLength
	}
	return nil
}

var errLength = errors.New("lz77: output length mismatch")
