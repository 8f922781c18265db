package huffman

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"rqm/internal/bitio"
)

func encodeStreams(t *testing.T, cb *Codebook, syms []uint32, k int) [][]byte {
	t.Helper()
	ws := make([]*bitio.Writer, k)
	for i := range ws {
		ws[i] = bitio.NewWriter(0)
	}
	streams, err := cb.EncodeInterleaved(syms, k, nil, ws)
	if err != nil {
		t.Fatalf("EncodeInterleaved: %v", err)
	}
	return streams
}

func TestInterleavedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, k := range []int{1, 2, 3, 4, 7, 16} {
		for _, n := range []int{1, 2, 3, k - 1, k, k + 1, 257, 10000} {
			if n < 1 {
				continue
			}
			syms := make([]uint32, n)
			for i := range syms {
				// Geometric-ish distribution like quantization codes.
				v := uint32(0)
				for v < 40 && rng.Intn(3) != 0 {
					v++
				}
				syms[i] = 32768 + v - 20
			}
			cb, err := Build(freqsOf(syms))
			if err != nil {
				t.Fatalf("Build: %v", err)
			}
			streams := encodeStreams(t, cb, syms, k)
			if len(streams) != k {
				t.Fatalf("k=%d: got %d streams", k, len(streams))
			}
			out := make([]uint32, n)
			if err := cb.DecodeInterleaved(streams, out); err != nil {
				t.Fatalf("k=%d n=%d: DecodeInterleaved: %v", k, n, err)
			}
			for i := range out {
				if out[i] != syms[i] {
					t.Fatalf("k=%d n=%d: symbol %d decoded %d, want %d", k, n, i, out[i], syms[i])
				}
			}
		}
	}
}

func TestInterleavedMatchesSerialPerStream(t *testing.T) {
	// Stream s of an interleaved encode must be the plain serial encode of
	// the symbols at indices ≡ s (mod k): interleaving is pure round-robin.
	syms := []uint32{5, 1, 1, 2, 5, 1, 0, 0, 1, 2, 3}
	cb, err := Build(freqsOf(syms))
	if err != nil {
		t.Fatal(err)
	}
	const k = 3
	streams := encodeStreams(t, cb, syms, k)
	for s := 0; s < k; s++ {
		var sub []uint32
		for i := s; i < len(syms); i += k {
			sub = append(sub, syms[i])
		}
		w := bitio.NewWriter(0)
		if err := cb.Encode(w, sub); err != nil {
			t.Fatal(err)
		}
		want := w.Bytes()
		if string(streams[s]) != string(want) {
			t.Fatalf("stream %d bytes differ from serial encode of its symbols", s)
		}
	}
}

func TestInterleavedSingleSymbolAlphabet(t *testing.T) {
	syms := make([]uint32, 100)
	for i := range syms {
		syms[i] = 9
	}
	cb, err := Build(freqsOf(syms))
	if err != nil {
		t.Fatal(err)
	}
	streams := encodeStreams(t, cb, syms, 4)
	out := make([]uint32, len(syms))
	if err := cb.DecodeInterleaved(streams, out); err != nil {
		t.Fatal(err)
	}
	for i := range out {
		if out[i] != 9 {
			t.Fatalf("symbol %d: got %d", i, out[i])
		}
	}
}

func TestInterleavedLongCodes(t *testing.T) {
	// Exponential frequencies force codes past the decode-table width so the
	// slow canonical walk runs inside the interleaved decoder.
	freqs := map[uint32]int64{}
	f := int64(1)
	for s := uint32(0); s < 20; s++ {
		freqs[s] = f
		f *= 2
	}
	cb, err := Build(freqs)
	if err != nil {
		t.Fatal(err)
	}
	if cb.maxLen <= uint8(cb.tabBits) {
		t.Fatalf("want codes longer than table width %d, max len %d", cb.tabBits, cb.maxLen)
	}
	rng := rand.New(rand.NewSource(3))
	syms := make([]uint32, 5000)
	for i := range syms {
		syms[i] = uint32(rng.Intn(20))
	}
	streams := encodeStreams(t, cb, syms, 4)
	out := make([]uint32, len(syms))
	if err := cb.DecodeInterleaved(streams, out); err != nil {
		t.Fatal(err)
	}
	for i := range out {
		if out[i] != syms[i] {
			t.Fatalf("symbol %d: got %d want %d", i, out[i], syms[i])
		}
	}
}

func TestInterleavedTruncatedStream(t *testing.T) {
	syms := make([]uint32, 1000)
	rng := rand.New(rand.NewSource(11))
	for i := range syms {
		syms[i] = uint32(rng.Intn(64))
	}
	cb, err := Build(freqsOf(syms))
	if err != nil {
		t.Fatal(err)
	}
	streams := encodeStreams(t, cb, syms, 4)
	streams[2] = streams[2][:len(streams[2])/4] // truncate one stream
	out := make([]uint32, len(syms))
	err = cb.DecodeInterleaved(streams, out)
	if err == nil {
		t.Fatal("want error on truncated stream, got nil")
	}
	if !errors.Is(err, bitio.ErrUnexpectedEOF) {
		// An early-terminating garbage decode is also acceptable, but the
		// common truncation shape must surface the typed EOF.
		t.Logf("truncation surfaced as: %v", err)
	}
}

func TestInterleavedBadStreamCount(t *testing.T) {
	syms := []uint32{1, 2, 3}
	cb, err := Build(freqsOf(syms))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cb.EncodeInterleaved(syms, 0, nil, nil); !errors.Is(err, ErrBadStreamCount) {
		t.Fatalf("k=0: got %v", err)
	}
	if _, err := cb.EncodeInterleaved(syms, MaxStreams+1, nil, nil); !errors.Is(err, ErrBadStreamCount) {
		t.Fatalf("k=17: got %v", err)
	}
	if err := cb.DecodeInterleaved(make([][]byte, MaxStreams+1), make([]uint32, 1)); !errors.Is(err, ErrBadStreamCount) {
		t.Fatalf("decode k=17: got %v", err)
	}
}

func TestInterleavedLUTMatchesMapEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	syms := make([]uint32, 4096)
	for i := range syms {
		syms[i] = uint32(rng.Intn(100))
	}
	cb, err := Build(freqsOf(syms))
	if err != nil {
		t.Fatal(err)
	}
	lut := make([]uint64, cb.MaxSymbol()+1)
	cb.FillLUT(lut)
	ws := make([]*bitio.Writer, 4)
	for i := range ws {
		ws[i] = bitio.NewWriter(0)
	}
	viaLUT, err := cb.EncodeInterleaved(syms, 4, lut, ws)
	if err != nil {
		t.Fatal(err)
	}
	viaMap := encodeStreams(t, cb, syms, 4)
	for s := range viaMap {
		if string(viaLUT[s]) != string(viaMap[s]) {
			t.Fatalf("stream %d: LUT and map encodes differ", s)
		}
	}
}

// TestEncodeOutsideLUT: a symbol past the LUT, first, in the middle or
// last, is refused with the text the per-symbol loops gave, by EncodeLUT
// and by EncodeInterleaved. With two such symbols in different streams, the
// interleaved encoder names the one a serial pass meets first.
func TestEncodeOutsideLUT(t *testing.T) {
	base := []uint32{1, 2, 3, 4, 5, 6, 7, 8, 9}
	cb, err := Build(freqsOf(base))
	if err != nil {
		t.Fatal(err)
	}
	lut := make([]uint64, cb.MaxSymbol()+1)
	cb.FillLUT(lut)
	ws := []*bitio.Writer{bitio.NewWriter(0), bitio.NewWriter(0), bitio.NewWriter(0), bitio.NewWriter(0)}
	for _, at := range [][]int{{0}, {4}, {8}, {6, 3}} {
		syms := slices.Clone(base)
		for j, i := range at {
			syms[i] = 100 + uint32(j)
		}
		want := fmt.Sprintf("huffman: symbol %d outside LUT of %d entries", syms[slices.Min(at)], len(lut))
		if err := cb.EncodeLUT(bitio.NewWriter(0), syms, lut); err == nil || err.Error() != want {
			t.Errorf("EncodeLUT, outside at %v: %v, want %q", at, err, want)
		}
		for _, w := range ws {
			w.Reset()
		}
		if _, err := cb.EncodeInterleaved(syms, 4, lut, ws); err == nil || err.Error() != want {
			t.Errorf("EncodeInterleaved, outside at %v: %v, want %q", at, err, want)
		}
	}
}
