// Benchmarks for the entropy stage: symbol-level decode throughput of the
// serial, interleaved, and tANS coders over the same quantization-code
// stream, plus end-to-end container decode per entropy codec. Developer
// tools — the perf record is `go run ./bench` (huffman.* / ans.* /
// compressor.decompress_mb_s.*). Serial and interleaved Huffman run the same
// decode kernel; what separates them is four overlapped dependency chains.
package rqm_test

import (
	"testing"

	"rqm"
	"rqm/internal/ans"
	"rqm/internal/bitio"
	"rqm/internal/huffman"
	"rqm/internal/stats"
)

// benchSymbols builds a quantization-code-like stream: concentrated around
// the central code with geometric tails, the histogram shape every field in
// the paper's suite produces under a sane error bound.
func benchSymbols(n int) ([]uint32, map[uint32]int64) {
	rng := stats.NewXorShift64(99)
	syms := make([]uint32, n)
	freqs := map[uint32]int64{}
	const center = 32768
	for i := range syms {
		v := center
		for rng.Uint64()%2 == 0 && v < center+40 {
			v++
		}
		if rng.Uint64()%2 == 0 {
			v = center - (v - center)
		}
		syms[i] = uint32(v)
		freqs[syms[i]]++
	}
	return syms, freqs
}

const benchSymbolCount = 1 << 20

// BenchmarkDecodeSerialHuffman is the K = 1 case of the decode kernel, the
// comparison anchor for the interleaved case.
func BenchmarkDecodeSerialHuffman(b *testing.B) {
	syms, freqs := benchSymbols(benchSymbolCount)
	cb, err := huffman.Build(freqs)
	if err != nil {
		b.Fatal(err)
	}
	bw := bitio.NewWriter(0)
	if err := cb.Encode(bw, syms); err != nil {
		b.Fatal(err)
	}
	payload := bw.Bytes()
	out := make([]uint32, len(syms))
	b.SetBytes(int64(len(syms)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cb.Decode(bitio.NewReader(payload), out); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeInterleaved measures the K-stream decoder on the same
// symbols and codebook as the serial benchmark (bytes/op = symbols/op, so
// MB/s here is millions of symbols per second).
func BenchmarkDecodeInterleaved(b *testing.B) {
	syms, freqs := benchSymbols(benchSymbolCount)
	cb, err := huffman.Build(freqs)
	if err != nil {
		b.Fatal(err)
	}
	k := huffman.DefaultStreams
	ws := make([]*bitio.Writer, k)
	for i := range ws {
		ws[i] = bitio.NewWriter(0)
	}
	streams, err := cb.EncodeInterleaved(syms, k, nil, ws)
	if err != nil {
		b.Fatal(err)
	}
	out := make([]uint32, len(syms))
	b.SetBytes(int64(len(syms)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cb.DecodeInterleaved(streams, out); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeTANS measures the two-state tANS decoder on the same
// symbol stream.
func BenchmarkDecodeTANS(b *testing.B) {
	syms, freqs := benchSymbols(benchSymbolCount)
	tab, err := ans.Build(freqs)
	if err != nil {
		b.Fatal(err)
	}
	defer tab.Release()
	stream, states, bits, err := tab.Encode(nil, syms, nil)
	if err != nil {
		b.Fatal(err)
	}
	out := make([]uint32, len(syms))
	b.SetBytes(int64(len(syms)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tab.Decode(stream, states, bits, out); err != nil {
			b.Fatal(err)
		}
	}
}

func benchCodecContainer(b *testing.B, codecName string) ([]byte, int64) {
	b.Helper()
	f := benchField(b)
	lo, hi := f.ValueRange()
	c, err := rqm.CodecByName(codecName)
	if err != nil {
		b.Fatal(err)
	}
	res, err := rqm.CompressWith(c, f, rqm.CodecOptions{Mode: rqm.ABS, ErrorBound: (hi - lo) * 1e-3})
	if err != nil {
		b.Fatal(err)
	}
	return res.Bytes, f.OriginalBytes()
}

func benchDecodeContainer(b *testing.B, codecName string) {
	b.Helper()
	blob, origBytes := benchCodecContainer(b, codecName)
	b.SetBytes(origBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rqm.Decompress(blob); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeInterleavedContainer is end-to-end container decode
// (entropy stage + predictor reconstruction) for the prediction-ilv codec.
func BenchmarkDecodeInterleavedContainer(b *testing.B) {
	benchDecodeContainer(b, rqm.CodecPredictionILVName)
}

// BenchmarkDecodeTANSContainer is end-to-end container decode for the
// prediction-tans codec.
func BenchmarkDecodeTANSContainer(b *testing.B) {
	benchDecodeContainer(b, rqm.CodecPredictionTANSName)
}
