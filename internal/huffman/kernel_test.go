package huffman

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"rqm/internal/bitio"
	"rqm/internal/poison"
)

// errClass sorts a decode verdict into the classes callers can tell apart:
// success, a truncated stream (wraps bitio.ErrUnexpectedEOF) or an invalid
// code.
func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, bitio.ErrUnexpectedEOF):
		return "truncated"
	}
	return "invalid"
}

// oracleHistogram is one alphabet-and-shape case: counts[s] is symbol s's
// frequency over a dense range, the form BuildDense takes.
type oracleHistogram struct {
	name   string
	counts []int64
}

// oracleHistograms spans alphabets of 1 to 4096 symbols under flat,
// geometric and one-dominant shapes, plus a Fibonacci histogram whose
// unflattened tree is deeper than MaxCodeLen.
func oracleHistograms() []oracleHistogram {
	var hs []oracleHistogram
	for _, alpha := range []int{1, 2, 3, 17, 256, 600, 4096} {
		base := 40000 - alpha/2 // quantization codes sit around a large centre
		flat := make([]int64, base+alpha)
		geo := make([]int64, base+alpha)
		dom := make([]int64, base+alpha)
		for j := 0; j < alpha; j++ {
			flat[base+j] = 5
			// Two-sided geometric around the centre, floor 1 so every symbol
			// of the alphabet is coded.
			d := j - alpha/2
			if d < 0 {
				d = -d
			}
			geo[base+j] = 1 + int64(1<<20)>>min(uint(d), 20)
			dom[base+j] = 1 + int64(j%3)
		}
		dom[base+alpha/2] = 1 << 24
		hs = append(hs,
			oracleHistogram{fmt.Sprintf("flat/%d", alpha), flat},
			oracleHistogram{fmt.Sprintf("geometric/%d", alpha), geo},
			oracleHistogram{fmt.Sprintf("dominant/%d", alpha), dom})
	}
	fib := make([]int64, 70)
	a, b := int64(1), int64(1)
	for i := range fib {
		fib[i] = a
		a, b = b, a+b
	}
	return append(hs, oracleHistogram{"fibonacci/70", fib})
}

// sample draws n symbols from the histogram (every coded symbol is a
// candidate, weights flattened enough that long codes do occur).
func (h oracleHistogram) sample(rng *rand.Rand, n int) []uint32 {
	var alphabet []uint32
	for s, c := range h.counts {
		if c > 0 {
			alphabet = append(alphabet, uint32(s))
		}
	}
	syms := make([]uint32, n)
	for i := range syms {
		// Mostly near the middle of the alphabet, sometimes anywhere.
		j := len(alphabet) / 2
		if rng.Intn(4) == 0 {
			j = rng.Intn(len(alphabet))
		} else if len(alphabet) > 1 {
			j = (j + rng.Intn(5) - 2 + len(alphabet)) % len(alphabet)
		}
		syms[i] = alphabet[j]
	}
	return syms
}

func encodeSerial(t testing.TB, ref *refCodebook, syms []uint32) []byte {
	t.Helper()
	w := bitio.NewWriter(0)
	if err := ref.Encode(w, syms); err != nil {
		t.Fatal(err)
	}
	return w.Bytes()
}

func requireSymbols(t *testing.T, what string, got, want []uint32) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: symbol %d = %d, want %d", what, i, got[i], want[i])
		}
	}
}

// TestKernelMatchesOracle: whatever way a codebook is built — map, dense
// with a shuffled touched list, dense scanning, parsed back — its serialized
// bytes are the oracle builder's, and the kernel decodes what the oracle's
// codes encoded to the same symbols the oracle decoder reads, through every
// entry point and stream count.
func TestKernelMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, h := range oracleHistograms() {
		freqs := map[uint32]int64{}
		var touched []uint32
		for s, c := range h.counts {
			if c > 0 {
				freqs[uint32(s)] = c
				touched = append(touched, uint32(s))
			}
		}
		// A zero-count symbol in touched must be ignored, as the map builder
		// ignores one.
		if len(h.counts) > len(touched) {
			touched = append(touched, 0)
		}
		rng.Shuffle(len(touched), func(i, j int) { touched[i], touched[j] = touched[j], touched[i] })

		ref, err := refBuild(freqs)
		if err != nil {
			t.Fatal(err)
		}
		want := ref.Serialize()
		fromMap, err := Build(freqs)
		if err != nil {
			t.Fatal(err)
		}
		fromTouched, err := BuildDense(h.counts, touched)
		if err != nil {
			t.Fatal(err)
		}
		fromScan, err := BuildDense(h.counts, nil)
		if err != nil {
			t.Fatal(err)
		}
		parsed, consumed, err := Parse(want)
		if err != nil || consumed != len(want) {
			t.Fatalf("%s: Parse consumed %d of %d: %v", h.name, consumed, len(want), err)
		}
		books := map[string]*Codebook{"Build": fromMap, "BuildDense(touched)": fromTouched, "BuildDense(scan)": fromScan, "Parse": parsed}
		for how, cb := range books {
			if got := cb.Serialize(); !bytes.Equal(got, want) {
				t.Fatalf("%s: %s serializes differently from the oracle builder", h.name, how)
			}
			if got := cb.AppendSerialized([]byte{7}); !bytes.Equal(got[1:], want) || got[0] != 7 {
				t.Fatalf("%s: %s AppendSerialized differs from Serialize", h.name, how)
			}
			if !slices.Equal(cb.symbols, ref.symbols) || !slices.Equal(cb.codes, ref.codes) || !slices.Equal(cb.lengths, ref.lengths) {
				t.Fatalf("%s: %s canonical tables differ from the oracle's", h.name, how)
			}
		}

		for _, n := range []int{0, 1, 7, 777, 1 << 17} {
			syms := h.sample(rng, n)
			stream := encodeSerial(t, ref, syms)
			refOut := make([]uint32, n)
			if err := ref.refDecode(&refReader{buf: stream}, refOut); err != nil {
				t.Fatalf("%s n=%d: oracle decode: %v", h.name, n, err)
			}
			requireSymbols(t, h.name+" oracle", refOut, syms)
			for how, cb := range books {
				out := make([]uint32, n)
				if err := cb.Decode(bitio.NewReader(stream), out); err != nil {
					t.Fatalf("%s n=%d %s: Decode: %v", h.name, n, how, err)
				}
				requireSymbols(t, h.name+" Decode/"+how, out, syms)
				clear(out)
				if err := cb.DecodeSerial(stream, out); err != nil {
					t.Fatalf("%s n=%d %s: DecodeSerial: %v", h.name, n, how, err)
				}
				requireSymbols(t, h.name+" DecodeSerial/"+how, out, syms)
			}
			ks := []int{1, 2, 3, 4, 16}
			if n == 1<<17 {
				ks = []int{1, 4}
			}
			lut := make([]uint64, fromTouched.MaxSymbol()+1)
			fromTouched.FillLUT(lut)
			for _, k := range ks {
				ws := make([]*bitio.Writer, k)
				for i := range ws {
					ws[i] = bitio.NewWriter(0)
				}
				streams, err := fromTouched.EncodeInterleaved(syms, k, lut, ws)
				if err != nil {
					t.Fatal(err)
				}
				if k == 1 && !bytes.Equal(streams[0], stream) {
					t.Fatalf("%s n=%d: one interleaved stream is not the serial stream", h.name, n)
				}
				out := make([]uint32, n)
				if err := parsed.DecodeInterleaved(streams, out); err != nil {
					t.Fatalf("%s n=%d k=%d: DecodeInterleaved: %v", h.name, n, k, err)
				}
				requireSymbols(t, fmt.Sprintf("%s k=%d", h.name, k), out, syms)
			}
		}
		for _, cb := range books {
			cb.Release()
		}
	}
}

// hostileBooks are serialized codebooks no encoder emits but Parse accepts:
// incomplete ones, where some prefixes are no code at all.
func hostileBooks() [][]byte {
	entries := func(lens ...uint8) []byte {
		b := binary.AppendUvarint(nil, uint64(len(lens)))
		for i, l := range lens {
			d := uint64(3)
			if i == 0 {
				d = 101
			}
			b = append(binary.AppendUvarint(b, d), l)
		}
		return b
	}
	return [][]byte{
		entries(1),               // one symbol: "1" is no code
		entries(3),               // one 3-bit code
		entries(2, 2, 2),         // "11" unused
		entries(1, 3, 14, 14),    // long codes with holes between them
		entries(2, 13, 20, 32),   // out to the longest length
		entries(12, 12, 12, 13),  // nothing in the table at all
		entries(32, 32),          // only 32-bit codes
		entries(1, 2, 3, 4, 4),   // complete, for contrast
		entries(11, 11, 12, 1),   // table-width edge
		entries(1, 2, 3, 32, 32), // short codes then the far end
	}
}

// mutate damages a stream the way storage and transport do: cut short,
// bits flipped, or padded out with more than the final byte's zeros.
func mutate(rng *rand.Rand, stream []byte) []byte {
	s := append([]byte(nil), stream...)
	switch rng.Intn(4) {
	case 0:
		if len(s) > 0 {
			s = s[:rng.Intn(len(s))]
		}
	case 1:
		for range 1 + rng.Intn(3) {
			if len(s) > 0 {
				s[rng.Intn(len(s))] ^= 1 << rng.Intn(8)
			}
		}
	case 2:
		s = append(s, make([]byte, rng.Intn(12))...)
	case 3:
		tail := make([]byte, 1+rng.Intn(12))
		rng.Read(tail)
		s = append(s, tail...)
	}
	return s
}

// requireSameVerdict decodes n symbols of stream through the oracle and
// through both kernel entry points and requires one verdict: equal symbols,
// or errors of the same class.
func requireSameVerdict(t *testing.T, cb *Codebook, ref *refCodebook, stream []byte, n int) {
	t.Helper()
	want := make([]uint32, n)
	wantErr := ref.refDecode(&refReader{buf: stream}, want)
	for _, entry := range []string{"Decode", "DecodeSerial"} {
		got := make([]uint32, n)
		var err error
		if entry == "Decode" {
			err = cb.Decode(bitio.NewReader(stream), got)
		} else {
			err = cb.DecodeSerial(stream, got)
		}
		if errClass(err) != errClass(wantErr) {
			t.Fatalf("%s of %d symbols from %x: %v, oracle: %v", entry, n, stream, err, wantErr)
		}
		if err == nil && !slices.Equal(got, want) {
			t.Fatalf("%s of %d symbols from %x: symbols differ from the oracle's", entry, n, stream)
		}
	}
}

// requireSameVerdictInterleaved splits the question over k streams: the
// oracle decodes each stream's share on its own, the kernel all at once. The
// kernel may fail only if some stream's oracle decode fails, in one of those
// classes, and must fail if any does.
func requireSameVerdictInterleaved(t *testing.T, cb *Codebook, ref *refCodebook, streams [][]byte, n int) {
	t.Helper()
	k := len(streams)
	want := make([]uint32, n)
	classes := map[string]bool{}
	for s := range streams {
		part := make([]uint32, (n-s+k-1)/k) // the i < n with i%k == s
		err := ref.refDecode(&refReader{buf: streams[s]}, part)
		classes[errClass(err)] = true
		if err == nil {
			for j, v := range part {
				want[s+j*k] = v
			}
		}
	}
	got := make([]uint32, n)
	err := cb.DecodeInterleaved(streams, got)
	if failed := len(classes) > 1 || !classes["ok"]; failed != (err != nil) || !classes[errClass(err)] {
		t.Fatalf("DecodeInterleaved of %d symbols over %d streams: %v, oracle classes %v", n, k, err, classes)
	}
	if err == nil && !slices.Equal(got, want) {
		t.Fatalf("DecodeInterleaved of %d symbols over %d streams: symbols differ from the oracle's", n, k)
	}
}

// TestKernelErrorsMatchOracle: on truncated, bit-flipped and padding-extended
// streams, over real and hostile codebooks, the kernel and the oracle reach
// the same verdict.
func TestKernelErrorsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	var books [][]byte
	for _, h := range oracleHistograms() {
		cb, err := BuildDense(h.counts, nil)
		if err != nil {
			t.Fatal(err)
		}
		books = append(books, cb.Serialize())
	}
	books = append(books, hostileBooks()...)
	classes := map[string]int{}
	for round := 0; round < 400; round++ {
		blob := books[round%len(books)]
		cb, _, err := Parse(blob)
		if err != nil {
			t.Fatal(err)
		}
		ref, _, err := refParse(blob)
		if err != nil {
			t.Fatal(err)
		}
		n := []int{1, 3, 40, 300, 2500}[rng.Intn(5)]
		syms := make([]uint32, n)
		for i := range syms {
			syms[i] = ref.symbols[rng.Intn(len(ref.symbols))]
			if rng.Intn(3) > 0 {
				syms[i] = ref.symbols[0] // keep the shortest code common
			}
		}
		stream := mutate(rng, encodeSerial(t, ref, syms))
		// Ask for the symbols written, and sometimes for more than any
		// intact stream would hold.
		ask := n + rng.Intn(2)*rng.Intn(40)
		requireSameVerdict(t, cb, ref, stream, ask)
		classes[errClass(ref.refDecode(&refReader{buf: stream}, make([]uint32, ask)))]++

		k := []int{2, 4, 4, 5}[rng.Intn(4)]
		ws := make([]*bitio.Writer, k)
		for i := range ws {
			ws[i] = bitio.NewWriter(0)
		}
		streams, err := cb.EncodeInterleaved(syms, k, nil, ws)
		if err != nil {
			t.Fatal(err)
		}
		damaged := rng.Intn(k)
		streams[damaged] = mutate(rng, streams[damaged])
		requireSameVerdictInterleaved(t, cb, ref, streams, ask)
		cb.Release()
	}
	for _, class := range []string{"ok", "truncated", "invalid"} {
		if classes[class] < 20 {
			t.Fatalf("only %d of 400 damaged streams ended %q: the mix no longer covers that verdict (%v)", classes[class], class, classes)
		}
	}
}

// TestDecodeReaderResumes: the transform codec reads one class code with
// Decode(r, out[:1]) and then raw bits with r.ReadBits. The kernel works on
// the reader's own window, so after every call the reader stands exactly
// where the oracle's reader stands.
func TestDecodeReaderResumes(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	counts := make([]int64, 61)
	for c := range counts {
		counts[c] = 1 + int64(1<<16)>>min(uint(c), 16)
	}
	cb, err := BuildDense(counts, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cb.Release()
	ref, _, err := refParse(cb.Serialize())
	if err != nil {
		t.Fatal(err)
	}
	var lut [64]uint64
	cb.FillLUT(lut[:])
	const n = 5000
	classes := make([]uint32, n)
	raws := make([]uint64, n)
	w := bitio.NewWriter(0)
	for i := range classes {
		classes[i] = uint32(rng.Intn(8))
		if rng.Intn(10) == 0 {
			classes[i] = uint32(rng.Intn(len(counts)))
		}
		if err := cb.EncodeLUT(w, classes[i:i+1], lut[:]); err != nil {
			t.Fatal(err)
		}
		width := uint(classes[i] % 57)
		raws[i] = rng.Uint64() & (1<<width - 1)
		w.WriteBits(raws[i], width)
	}
	stream := w.Bytes()
	r, rr := bitio.NewReader(stream), &refReader{buf: stream}
	var got, want [1]uint32
	for i := range classes {
		if err := cb.Decode(r, got[:]); err != nil {
			t.Fatalf("class %d: %v", i, err)
		}
		if err := ref.refDecode(rr, want[:]); err != nil {
			t.Fatalf("class %d: oracle: %v", i, err)
		}
		if got != want || got[0] != classes[i] || r.BitsRead() != rr.read {
			t.Fatalf("class %d: decoded %d at bit %d, oracle %d at bit %d, wrote %d", i, got[0], r.BitsRead(), want[0], rr.read, classes[i])
		}
		width := uint(classes[i] % 57)
		v, err := r.ReadBits(width)
		if err != nil || v != raws[i] {
			t.Fatalf("raw bits %d: %d, %v; wrote %d", i, v, err, raws[i])
		}
		if _, err := rr.ReadBits(width); err != nil {
			t.Fatal(err)
		}
		if r.BitsRead() != rr.read {
			t.Fatalf("after raw bits %d: reader at bit %d, oracle at %d", i, r.BitsRead(), rr.read)
		}
	}
	if r.BitsRead() != w.Bits() {
		t.Fatalf("read %d bits of %d written", r.BitsRead(), w.Bits())
	}
}

// TestParseRejectsOversizedCount: a header may not make Parse allocate for
// entries the bytes after it cannot hold.
func TestParseRejectsOversizedCount(t *testing.T) {
	header := binary.AppendUvarint(nil, 1<<28)
	if len(header) != 5 {
		t.Fatalf("header is %d bytes", len(header))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := Parse(header)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrTruncatedCodebook) {
		t.Fatalf("Parse of a bare 2^28-entry header: %v, want ErrTruncatedCodebook", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1024 {
		t.Fatalf("Parse allocated %d bytes before rejecting the header", grew)
	}
	// The same count with too few entry bytes behind it fails the same way.
	if _, _, err := Parse(append(binary.AppendUvarint(nil, 3), 1, 2, 1, 2, 1)); !errors.Is(err, ErrTruncatedCodebook) {
		t.Fatalf("Parse of 3 declared entries in 5 bytes: %v", err)
	}
}

// TestSteadyStateAllocations: with a warm pool a dense build, serializing
// into a reused buffer, a LUT encode and a release allocate nothing, and
// neither do a parse, a decode and a release.
func TestSteadyStateAllocations(t *testing.T) {
	if poison.Enabled {
		t.Skip("sync.Pool sheds items under the race detector")
	}
	rng := rand.New(rand.NewSource(53))
	const centre = 32768
	counts := make([]int64, 2*centre+2)
	var touched []uint32
	syms := make([]uint32, 1<<16)
	for i := range syms {
		d := int(rng.NormFloat64() * 90)
		syms[i] = uint32(centre + d)
		if counts[syms[i]] == 0 {
			touched = append(touched, syms[i])
		}
		counts[syms[i]]++
	}
	lut := make([]uint64, len(counts))
	w := bitio.NewWriter(len(syms) * 2)
	var blob []byte
	encode := func() {
		cb, err := BuildDense(counts, touched)
		if err != nil {
			t.Fatal(err)
		}
		blob = cb.AppendSerialized(blob[:0])
		cb.FillLUT(lut)
		w.Reset()
		if err := cb.EncodeLUT(w, syms, lut); err != nil {
			t.Fatal(err)
		}
		cb.Release()
	}
	encode()
	stream := w.Bytes()
	out := make([]uint32, len(syms))
	streams := [][]byte{stream}
	decode := func() {
		cb, _, err := Parse(blob)
		if err != nil {
			t.Fatal(err)
		}
		if err := cb.DecodeSerial(stream, out); err != nil {
			t.Fatal(err)
		}
		if err := cb.DecodeInterleaved(streams, out); err != nil {
			t.Fatal(err)
		}
		cb.Release()
	}
	if allocs := testing.AllocsPerRun(20, encode); allocs > 0 {
		t.Fatalf("steady-state build+serialize+encode allocates %.0f objects per codebook, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(20, decode); allocs > 0 {
		t.Fatalf("steady-state parse+decode allocates %.0f objects per codebook, want 0", allocs)
	}
	requireSymbols(t, "steady state", out, syms)
}

// FuzzDecodeMatchesOracle: any codebook bytes, any stream bytes, any symbol
// count. Parse agrees with the oracle parser — except on the two kinds of
// codebook it rejects on purpose and the oracle let through, which no
// encoder emits: a symbol delta that wraps back below its predecessor, and
// 32-bit codes that overrun the code space (the oracle's Kraft check stopped
// at 31 bits). Then every decode entry point agrees with the oracle decoder:
// equal symbols or equally classed errors, never a panic.
func FuzzDecodeMatchesOracle(f *testing.F) {
	rng := rand.New(rand.NewSource(59))
	for i, h := range oracleHistograms() {
		if i%4 != 0 {
			continue
		}
		cb, err := BuildDense(h.counts, nil)
		if err != nil {
			f.Fatal(err)
		}
		ref, _, err := refParse(cb.Serialize())
		if err != nil {
			f.Fatal(err)
		}
		stream := encodeSerial(f, ref, h.sample(rng, 300))
		f.Add(cb.Serialize(), stream, uint16(300))
		f.Add(cb.Serialize(), stream[:len(stream)/2], uint16(300))
	}
	for _, blob := range hostileBooks() {
		f.Add(blob, []byte{0x00, 0xff, 0x5a, 0xc3, 0x00, 0x00, 0x81, 0x7e, 0xff, 0xff, 0x10}, uint16(40))
	}
	f.Fuzz(func(t *testing.T, blob, stream []byte, n16 uint16) {
		if len(blob) > 1<<14 {
			t.Skip() // the oracle builds a map entry per symbol
		}
		n := int(n16 % 4096)
		ref, refConsumed, refErr := refParse(blob)
		cb, consumed, err := Parse(blob)
		if err != nil {
			if refErr == nil && !refOverrunsOrUnsorted(blob) {
				t.Fatalf("Parse rejects what the oracle parses: %v", err)
			}
			return
		}
		defer cb.Release()
		if refErr != nil {
			t.Fatalf("Parse accepts what the oracle rejects: %v", refErr)
		}
		if consumed != refConsumed || !bytes.Equal(cb.Serialize(), ref.Serialize()) {
			t.Fatalf("Parse consumed %d bytes, oracle %d, or the codebooks serialize differently", consumed, refConsumed)
		}
		requireSameVerdict(t, cb, ref, stream, n)
		cut := func(i int) int { return len(stream) * i / 4 }
		streams := [][]byte{stream[:cut(1)], stream[cut(1):cut(2)], stream[cut(2):cut(3)], stream[cut(3):]}
		requireSameVerdictInterleaved(t, cb, ref, streams, n)
		requireSameVerdictInterleaved(t, cb, ref, streams[1:], n)
	})
}

// refOverrunsOrUnsorted reports whether blob — which the oracle parser
// accepted — lists symbols out of ascending order or over-subscribes the
// code space.
func refOverrunsOrUnsorted(blob []byte) bool {
	n, pos := binary.Uvarint(blob)
	prev := int64(-1)
	var space uint64 // in units of 2^-32
	for range n {
		d, k := binary.Uvarint(blob[pos:])
		pos += k
		sym := prev + int64(d)
		if sym <= prev {
			return true
		}
		space += 1 << (32 - blob[pos])
		pos++
		prev = sym
	}
	return space > 1<<32
}

// benchChunk is one 65536-value chunk of quantization codes, normally
// distributed about the centre code: sigma 90 gives the ~600-symbol alphabet
// and the ~2 % of codes longer than the decode table that the bench corpus'
// widest fields show; sigma 8 keeps nearly every code in the table.
func benchChunk(sigma float64) (syms []uint32, counts []int64, touched []uint32) {
	rng := rand.New(rand.NewSource(61))
	const centre = 32768
	counts = make([]int64, 2*centre+2)
	syms = make([]uint32, 1<<16)
	for i := range syms {
		syms[i] = uint32(centre + int(rng.NormFloat64()*sigma))
		if counts[syms[i]] == 0 {
			touched = append(touched, syms[i])
		}
		counts[syms[i]]++
	}
	return syms, counts, touched
}

func BenchmarkBuildDenseSerialize(b *testing.B) {
	_, counts, touched := benchChunk(90)
	var blob []byte
	b.ReportAllocs()
	for b.Loop() {
		cb, err := BuildDense(counts, touched)
		if err != nil {
			b.Fatal(err)
		}
		blob = cb.AppendSerialized(blob[:0])
		cb.Release()
	}
	b.ReportMetric(float64(len(touched)), "symbols")
}

func BenchmarkParse(b *testing.B) {
	_, counts, touched := benchChunk(90)
	cb, err := BuildDense(counts, touched)
	if err != nil {
		b.Fatal(err)
	}
	blob := cb.Serialize()
	b.ReportAllocs()
	for b.Loop() {
		cb, _, err := Parse(blob)
		if err != nil {
			b.Fatal(err)
		}
		cb.Release()
	}
}

func BenchmarkDecodeSerial(b *testing.B) {
	for _, sigma := range []float64{8, 90} {
		syms, counts, touched := benchChunk(sigma)
		cb, err := BuildDense(counts, touched)
		if err != nil {
			b.Fatal(err)
		}
		lut := make([]uint64, len(counts))
		cb.FillLUT(lut)
		w := bitio.NewWriter(0)
		if err := cb.EncodeLUT(w, syms, lut); err != nil {
			b.Fatal(err)
		}
		stream := w.Bytes()
		long := 0
		for _, s := range syms {
			if lut[s]&0xff > decodeTableBits {
				long++
			}
		}
		out := make([]uint32, len(syms))
		b.Run(fmt.Sprintf("sigma=%v", sigma), func(b *testing.B) {
			b.SetBytes(int64(len(syms))) // MB/s reads as millions of symbols a second
			for b.Loop() {
				if err := cb.DecodeSerial(stream, out); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(100*float64(long)/float64(len(syms)), "%long")
		})
	}
}
