package compressor

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"strings"
	"testing"

	"rqm/internal/grid"
	"rqm/internal/predictor"
	"rqm/internal/quantizer"
)

var allEntropyKinds = []EntropyKind{EntropyHuffman, EntropyInterleaved, EntropyTANS}

func TestEntropyKindNames(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range allEntropyKinds {
		if name := e.String(); seen[name] || strings.HasPrefix(name, "EntropyKind(") {
			t.Fatalf("entropy kind %d has name %q", int(e), name)
		}
		seen[e.String()] = true
	}
	if got := EntropyKind(9).String(); got != "EntropyKind(9)" {
		t.Fatalf("unknown kind prints %q", got)
	}
}

// TestEntropyRoundTripMatrix round-trips every entropy stage against every
// predictor and lossless backend; reconstructions must be identical across
// stages because the entropy coder is lossless by construction.
func TestEntropyRoundTripMatrix(t *testing.T) {
	f := testField(t, "cesm/TS")
	lo, hi := f.ValueRange()
	eb := (hi - lo) * 1e-3
	for _, kind := range []predictor.Kind{predictor.Lorenzo, predictor.Interpolation, predictor.Regression} {
		for _, ll := range []LosslessKind{LosslessNone, LosslessRLE} {
			var ref *grid.Field
			for _, e := range allEntropyKinds {
				opts := Options{Predictor: kind, Mode: ABS, ErrorBound: eb, Lossless: ll, Entropy: e}
				res, dec := compressDecompress(t, f, opts)
				if res.Stats.Entropy != e {
					t.Fatalf("%s/%s/%s: stats report entropy %s", kind, ll, e, res.Stats.Entropy)
				}
				if ref == nil {
					ref = dec
					continue
				}
				for i := range dec.Data {
					if dec.Data[i] != ref.Data[i] {
						t.Fatalf("%s/%s/%s: reconstruction differs from serial Huffman at %d", kind, ll, e, i)
					}
				}
			}
		}
	}
}

// TestSerialHuffmanStaysVersion1 pins the compatibility contract: the default
// entropy stage must keep emitting the historical version 1 container
// byte-for-byte, and only the new stages may use version 2.
func TestSerialHuffmanStaysVersion1(t *testing.T) {
	f := testField(t, "hurricane/U")
	lo, hi := f.ValueRange()
	opts := Options{Predictor: predictor.Lorenzo, Mode: ABS, ErrorBound: (hi - lo) * 1e-3}
	res, err := Compress(f, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Bytes[4]; got != containerVersion {
		t.Fatalf("serial Huffman wrote container version %d, want %d", got, containerVersion)
	}
	for _, e := range []EntropyKind{EntropyInterleaved, EntropyTANS} {
		opts.Entropy = e
		res, err := Compress(f, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Bytes[4]; got != containerVersionEntropy {
			t.Fatalf("%s wrote container version %d, want %d", e, got, containerVersionEntropy)
		}
		if got := EntropyKind(res.Bytes[8]); got != e {
			t.Fatalf("container entropy byte = %d, want %d", got, e)
		}
	}
}

// TestEntropyRatiosComparable: the interleaved stage pays only stream-length
// framing over serial Huffman, and tANS must not be dramatically worse (it is
// usually better on skewed histograms).
func TestEntropyRatiosComparable(t *testing.T) {
	f := testField(t, "miranda/vx")
	lo, hi := f.ValueRange()
	sizes := map[EntropyKind]int64{}
	for _, e := range allEntropyKinds {
		res, err := Compress(f, Options{Predictor: predictor.Lorenzo, Mode: ABS, ErrorBound: (hi - lo) * 1e-3, Entropy: e})
		if err != nil {
			t.Fatal(err)
		}
		sizes[e] = res.Stats.CompressedBytes
	}
	base := sizes[EntropyHuffman]
	if sizes[EntropyInterleaved] > base+base/50 {
		t.Fatalf("interleaved container %d is >2%% over serial %d", sizes[EntropyInterleaved], base)
	}
	if sizes[EntropyTANS] > base+base/10 {
		t.Fatalf("tANS container %d is >10%% over serial %d", sizes[EntropyTANS], base)
	}
}

// TestTANSFallsBackOnHugeAlphabet: a field whose quantization alphabet exceeds
// the largest ANS table must silently fall back to serial Huffman and still
// round-trip. Its symbols are every code the quantizer accepts, the 65,537 in
// [−DefaultRadius, DefaultRadius], and the reserved unpredictable symbol:
// 65,538 against the 2^ans.MaxTableLog = 65,536 states of the largest table.
func TestTANSFallsBackOnHugeAlphabet(t *testing.T) {
	const r = quantizer.DefaultRadius
	f := grid.MustNew("every-code", grid.Float64, 2*r+3)
	// Under 1-D Lorenzo at ABS 0.5 a value's code is its difference to the
	// value before it: every integer in [−r, r] once, then a jump no code
	// reaches.
	for i := 1; i <= 2*r+1; i++ {
		f.Data[i] = f.Data[i-1] + float64(i-1-r)
	}
	f.Data[2*r+2] = f.Data[2*r+1] + 1e9
	res, _ := compressDecompress(t, f, Options{Predictor: predictor.Lorenzo, Mode: ABS, ErrorBound: 0.5, Entropy: EntropyTANS})
	if res.Stats.Entropy != EntropyHuffman || res.Stats.Unpredictable != 1 {
		t.Fatalf("entropy %s with %d unpredictable values, want the %s fallback with 1",
			res.Stats.Entropy, res.Stats.Unpredictable, EntropyHuffman)
	}
}

// TestVersion2Corruption: truncations and bit flips in version 2 containers
// must error, never panic.
func TestVersion2Corruption(t *testing.T) {
	f := testField(t, "cesm/TS")
	lo, hi := f.ValueRange()
	for _, e := range []EntropyKind{EntropyInterleaved, EntropyTANS} {
		res, err := Compress(f, Options{Predictor: predictor.Lorenzo, Mode: ABS, ErrorBound: (hi - lo) * 1e-3, Entropy: e})
		if err != nil {
			t.Fatal(err)
		}
		data := res.Bytes
		for cut := 0; cut < len(data); cut += 101 {
			if _, err := Decompress(data[:cut]); err == nil {
				t.Fatalf("%s: truncation at %d decoded", e, cut)
			}
		}
		for i := 0; i < len(data); i += 47 {
			bad := bytes.Clone(data)
			bad[i] ^= 0x55
			_, _ = Decompress(bad) // must not panic
		}
	}
}

// TestDecompressRejectsOversizedDims: a Huffman symbol costs at least one
// bit, so dims that multiply to more values than the payload has bits are a
// truncated container — refused before anything is sized by the value
// count (a 2^30-value symbol scratch would otherwise be allocated and then
// pinned in the arena pool).
func TestDecompressRejectsOversizedDims(t *testing.T) {
	f := testField(t, "cesm/TS")
	lo, hi := f.ValueRange()
	for _, e := range []EntropyKind{EntropyHuffman, EntropyInterleaved} {
		res, err := Compress(f, Options{Mode: ABS, ErrorBound: (hi - lo) * 1e-3, Entropy: e})
		if err != nil {
			t.Fatal(err)
		}
		crafted := bytes.Clone(res.Bytes)
		// The fixed header is magic, four (v1) or six (v2) option bytes,
		// radius, two bounds, precision and rank; the first dimension follows.
		firstDim := 4 + 4 + 4 + 8 + 8 + 2
		if e != EntropyHuffman {
			firstDim += 2
		}
		if got := binary.LittleEndian.Uint64(crafted[firstDim:]); got != uint64(f.Dims[0]) {
			t.Fatalf("%s: header offset %d holds %d, not the first dimension %d", e, firstDim, got, f.Dims[0])
		}
		binary.LittleEndian.PutUint64(crafted[firstDim:], 1<<30)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err = Decompress(crafted)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, grid.ErrTruncated) {
			t.Fatalf("%s: %d-byte container declaring 2^30×%d values: %v, want grid.ErrTruncated", e, len(crafted), f.Dims[1], err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Fatalf("%s: Decompress allocated %d bytes before rejecting the container", e, grew)
		}
	}
}
