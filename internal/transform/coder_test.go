package transform

import (
	"encoding/binary"
	"errors"
	"math"
	"math/bits"
	"strings"
	"testing"

	"rqm/internal/bitio"
	"rqm/internal/compressor"
	"rqm/internal/grid"
	"rqm/internal/huffman"
	"rqm/internal/stats"
)

// rqzf assembles a native container around a codebook and a payload.
func rqzf(eb float64, dims []int, codebook, payload []byte) []byte {
	le := binary.LittleEndian
	b := le.AppendUint32(nil, containerMagic)
	b = le.AppendUint64(b, math.Float64bits(eb))
	b = append(b, byte(grid.Float64), byte(len(dims)))
	for _, d := range dims {
		b = le.AppendUint64(b, uint64(d))
	}
	b = le.AppendUint16(b, 0) // no name
	b = append(le.AppendUint32(b, uint32(len(codebook))), codebook...)
	return append(le.AppendUint32(b, uint32(len(payload))), payload...)
}

// classBook serializes a codebook over the classes with positive counts.
func classBook(t testing.TB, counts []int64) []byte {
	t.Helper()
	cb, err := huffman.BuildDense(counts, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cb.Release()
	return cb.Serialize()
}

// errClass names the kind of a failure, the part of an error two decoders
// must agree on: their texts may differ in the index they name.
func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, bitio.ErrUnexpectedEOF):
		return "eof"
	case errors.Is(err, grid.ErrTruncated):
		return "truncated"
	case strings.Contains(err.Error(), "invalid code"):
		return "invalid code"
	case strings.Contains(err.Error(), "invalid class"):
		return "invalid class"
	}
	return "other: " + err.Error()
}

// sameDecode decodes data with the codec and with the oracle and fails
// unless both fail alike or both return the same shape and value bits.
func sameDecode(t *testing.T, data []byte) *grid.Field {
	t.Helper()
	got, gerr := Decompress(data)
	want, werr := oracleDecompressInto(nil, data)
	if errClass(gerr) != errClass(werr) {
		t.Fatalf("decode: %v, oracle %v", gerr, werr)
	}
	if werr != nil {
		return nil
	}
	if got.Name != want.Name || got.Prec != want.Prec || len(got.Data) != len(want.Data) {
		t.Fatalf("decoded %q %v %v, oracle %q %v %v", got.Name, got.Prec, got.Dims, want.Name, want.Prec, want.Dims)
	}
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("value %d decodes to %v, oracle %v", i, got.Data[i], want.Data[i])
		}
	}
	return got
}

// sameCompress compresses f with the codec and with the oracle and fails
// unless both refuse it or both write the same container and statistics.
func sameCompress(t *testing.T, f *grid.Field, eb float64) *Result {
	t.Helper()
	got, gerr := Compress(f, Options{ErrorBound: eb})
	want, werr := oracleCompress(f, Options{ErrorBound: eb})
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("compress: %v, oracle %v", gerr, werr)
	}
	if werr != nil {
		return nil
	}
	if string(got.Bytes) != string(want.Bytes) || got.Stats != want.Stats {
		t.Fatalf("%v eb=%g: container differs from the oracle's (%d vs %d bytes)", f.Dims, eb, len(got.Bytes), len(want.Bytes))
	}
	return got
}

// wideField alternates ±v along every axis of a 4^rank float64 field. At
// v = 2^56 and bound 1 its codes are ±2^55, the largest the codec admits,
// and each axis of the block transform doubles the difference, so the top
// coefficient has class 56+rank.
func wideField(t testing.TB, rank int, v float64) *grid.Field {
	t.Helper()
	dims := []int{4, 4, 4, 4}[:rank]
	f := grid.MustNew("wide", grid.Float64, dims...)
	for i := range f.Data {
		f.Data[i] = v
		if bits.OnesCount(uint(i&0x55))%2 == 1 { // odd sum of base-4 digits
			f.Data[i] = -v
		}
	}
	return f
}

// TestWideClassesRoundTrip: coefficients of classes 58 to 60 have more low
// bits than one bitio read or write takes; both directions split them. Both
// signs, and low bits that are not all zero, go through the split.
func TestWideClassesRoundTrip(t *testing.T) {
	for _, rank := range []int{3, 4} {
		for _, v := range []float64{0x1p56, -0x1p56, 0x1p56 - 0x1p41, -0x1p56 + 0x1p41} {
			f := wideField(t, rank, v)
			res := sameCompress(t, f, 1)
			back := sameDecode(t, res.Bytes)
			if err := compressor.VerifyErrorBound(f, back, compressor.ABS, 1); err != nil {
				t.Fatalf("rank %d ±%g: %v", rank, v, err)
			}
		}
	}
}

// TestHostileWideClassNeverPanics: a 4-value container whose codebook
// holds classes {0, 60} and whose payload is all ones decodes four class-60
// coefficients; it must decode or fail with a typed error, never panic.
func TestHostileWideClassNeverPanics(t *testing.T) {
	var counts [61]int64
	counts[0], counts[60] = 1, 1
	payload := make([]byte, 64)
	for i := range payload {
		payload[i] = 0xff
	}
	data := rqzf(1e-3, []int{4}, classBook(t, counts[:]), payload)
	if _, err := Decompress(data); err != nil && !errors.Is(err, bitio.ErrUnexpectedEOF) && !errors.Is(err, grid.ErrTruncated) {
		t.Fatalf("untyped error %v", err)
	}
	sameDecode(t, data)
	// Cut short, the same coefficients fail as a truncated stream.
	data = rqzf(1e-3, []int{4}, classBook(t, counts[:]), payload[:20])
	if _, err := Decompress(data); !errors.Is(err, bitio.ErrUnexpectedEOF) {
		t.Fatalf("truncated wide coefficients: %v, want bitio.ErrUnexpectedEOF", err)
	}
	sameDecode(t, data)
}

// TestDecodeErrorsNameTheCoefficient: a payload that ends inside the 16th
// coefficient (index 15) says so, for a class code and for its low bits.
func TestDecodeErrorsNameTheCoefficient(t *testing.T) {
	for _, tc := range []struct {
		name   string
		counts []int64
		want   string
	}{
		{"class code", []int64{10, 1, 1}, "symbol 15"}, // codes 0, 10, 11: the last '1' has no second bit
		{"low bits", []int64{1, 1}, "coefficient 15"},  // codes 0, 1: class 1 has no sign bit
	} {
		data := rqzf(1, []int{16}, classBook(t, tc.counts), []byte{0, 1})
		_, err := Decompress(data)
		if !errors.Is(err, bitio.ErrUnexpectedEOF) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: %v, want a truncated stream at %s", tc.name, err, tc.want)
		}
		sameDecode(t, data)
	}
}

// fuzzField builds a field of rank 1..4 whose axes (1..16 each, so edge
// blocks are clipped) come from shape; with edge set, its values sit at
// the ±2^55 code boundary, where the codec starts refusing them.
func fuzzField(rank uint8, shape uint16, eb float64, seed uint64, edge bool) *grid.Field {
	dims := make([]int, 1+rank%4)
	for a := range dims {
		dims[a] = 1 + int(shape>>(4*a))&15
	}
	f := grid.MustNew("fuzz", grid.Float64, dims...)
	rng := stats.NewXorShift64(seed | 1)
	big := math.Ldexp(2*eb, 55)
	for i := range f.Data {
		switch r := rng.Intn(8); {
		case edge && r < 6:
			v := []float64{big, math.Nextafter(big, 0), math.Nextafter(big, math.Inf(1)), big - eb}[r%4]
			if r%2 == 1 {
				v = -v
			}
			f.Data[i] = v
		default:
			f.Data[i] = 1e3 * eb * math.Sin(float64(i)*0.3) * rng.NormFloat64()
		}
	}
	return f
}

// FuzzTransformMatchesOracle holds the fused coefficient coder and the
// block walk to the codec they replaced (oracle_test.go): equal containers
// and statistics for fields of every rank with clipped edges, values at the
// code boundary and bounds over 15 decades; equal decoded bits; and, for raw
// payload bytes under a codebook over classes 0..63, equally classed errors.
func FuzzTransformMatchesOracle(f *testing.F) {
	f.Add(uint8(0), uint16(7), int8(-3), uint64(1), false, []byte(nil))
	f.Add(uint8(1), uint16(0x95), int8(0), uint64(2), true, []byte{4, 0, 2, 9, 0x5a, 0xa5, 0x00, 0x17, 0xff, 0x81, 0x3c, 0x00, 0x42, 0xe7})
	f.Add(uint8(2), uint16(0x5f8), int8(-1), uint64(3), false, []byte(nil))
	f.Add(uint8(3), uint16(0x3333), int8(0), uint64(5), true, []byte(nil))
	// Four values under classes {1, 60} and {1, 61}, all ones: four class-60
	// coefficients, then an invalid class.
	ones := []byte{1, 60, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}
	f.Add(uint8(0), uint16(3), int8(-3), uint64(6), false, ones)
	f.Add(uint8(0), uint16(3), int8(-3), uint64(6), false, append([]byte{1, 61}, ones[2:]...))
	// The same class-60 stream cut short, across a block boundary.
	f.Add(uint8(0), uint16(7), int8(0), uint64(7), false, ones[:12])
	f.Fuzz(func(t *testing.T, rank uint8, shape uint16, ebExp int8, seed uint64, edge bool, raw []byte) {
		eb := math.Pow(10, float64(ebExp%8))
		fld := fuzzField(rank, shape, eb, seed, edge)
		if res := sameCompress(t, fld, eb); res != nil {
			if back := sameDecode(t, res.Bytes); back == nil {
				t.Fatal("the oracle cannot decode a container both wrote")
			}
		}
		if len(raw) == 0 {
			return
		}
		// The raw bytes as a payload, under a codebook over the classes
		// (0..63, so invalid ones too) their first bytes name.
		var counts [64]int64
		k := 1 + int(raw[0])%16
		for _, b := range raw[1:min(k, len(raw))] {
			counts[b%64]++
		}
		counts[raw[0]%64]++
		sameDecode(t, rqzf(eb, fld.Dims, classBook(t, counts[:]), raw[min(k, len(raw)):]))
	})
}
