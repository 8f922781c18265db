package rqm_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"testing"

	"rqm"
)

// streamField builds the shared input for streaming tests.
func streamField(t testing.TB) *rqm.Field {
	t.Helper()
	f, err := rqm.GenerateField("nyx/temperature", 11, rqm.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestStreamRoundTripAllCodecs is the acceptance gate for the streaming
// subsystem: for every codec, a stream-written container must
// decode identically (bit for bit) through the concurrent Reader and the
// whole-buffer rqm.Decompress, and the per-chunk error bound must hold.
func TestStreamRoundTripAllCodecs(t *testing.T) {
	f := streamField(t)
	lo, hi := f.ValueRange()
	eb := 1e-3 * (hi - lo)

	for _, c := range rqm.Codecs() {
		t.Run(c.Name(), func(t *testing.T) {
			var buf bytes.Buffer
			w, err := rqm.NewWriter(&buf,
				rqm.WithStreamCodecName(c.Name()),
				rqm.WithStreamShape(f.Prec, f.Dims...),
				rqm.WithStreamFieldName(f.Name),
				rqm.WithChunkSize(2048),
				rqm.WithStreamWorkers(4),
				rqm.WithStreamCompression(rqm.CodecOptions{Mode: rqm.ABS, ErrorBound: eb}))
			if err != nil {
				t.Fatal(err)
			}
			if err := w.WriteValues(f.Data); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}

			r, err := rqm.NewReader(bytes.NewReader(buf.Bytes()), rqm.WithStreamReaderWorkers(4))
			if err != nil {
				t.Fatal(err)
			}
			streamed, err := r.ReadAll()
			if err != nil {
				t.Fatal(err)
			}
			whole, err := rqm.Decompress(buf.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			if streamed.Len() != f.Len() || whole.Len() != f.Len() {
				t.Fatalf("lengths: streamed %d, whole %d, want %d", streamed.Len(), whole.Len(), f.Len())
			}
			for i := range whole.Data {
				if math.Float64bits(streamed.Data[i]) != math.Float64bits(whole.Data[i]) {
					t.Fatalf("value %d: streaming decode %x, whole-buffer decode %x",
						i, math.Float64bits(streamed.Data[i]), math.Float64bits(whole.Data[i]))
				}
			}
			if err := rqm.VerifyErrorBound(f, streamed, rqm.ABS, eb*(1+1e-12)); err != nil {
				t.Fatal(err)
			}
			if streamed.Name != f.Name || streamed.Rank() != f.Rank() {
				t.Fatalf("metadata lost: %q %v, want %q %v", streamed.Name, streamed.Dims, f.Name, f.Dims)
			}
		})
	}
}

// TestStreamRandomAccess decodes one chunk of a container through the
// public index API without touching the rest.
func TestStreamRandomAccess(t *testing.T) {
	f := streamField(t)
	lo, hi := f.ValueRange()
	var buf bytes.Buffer
	w, err := rqm.NewWriter(&buf,
		rqm.WithStreamShape(f.Prec, f.Dims...),
		rqm.WithStreamValueRange(lo, hi),
		rqm.WithChunkSize(2048))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteValues(f.Data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	idx, err := rqm.ReadStreamIndex(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(idx.Entries) != w.Stats().Chunks || idx.TotalValues != int64(f.Len()) {
		t.Fatalf("index %d entries / %d values, want %d / %d",
			len(idx.Entries), idx.TotalValues, w.Stats().Chunks, f.Len())
	}
	whole, err := rqm.Decompress(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	// Chunk 3 in isolation must match the same slice of the full decode.
	e := idx.Entries[3]
	vals, err := rqm.ReadStreamChunk(bytes.NewReader(buf.Bytes()), e)
	if err != nil {
		t.Fatal(err)
	}
	start := 0
	for _, p := range idx.Entries[:3] {
		start += p.Values
	}
	for i, v := range vals {
		if math.Float64bits(v) != math.Float64bits(whole.Data[start+i]) {
			t.Fatalf("random-access value %d differs from sequential decode", i)
		}
	}
}

// TestEngineStreamWriter checks the engine-configured streaming path and
// that Engine.Decompress routes chunked containers.
func TestEngineStreamWriter(t *testing.T) {
	f := streamField(t)
	eng, err := rqm.NewEngine(rqm.WithMode(rqm.REL), rqm.WithErrorBound(1e-3), rqm.WithConcurrency(3))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w, err := eng.NewFieldStreamWriter(&buf, f, rqm.WithChunkSize(4096))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteField(f); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	back, err := eng.Decompress(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != f.Len() {
		t.Fatalf("engine decode %d values, want %d", back.Len(), f.Len())
	}
	// A REL-mode engine cannot stream without a resolved range: the raw
	// NewStreamWriter path must fail explicitly rather than guess.
	if _, err := eng.NewStreamWriter(io.Discard); !errors.Is(err, rqm.ErrStreamNeedsValueRange) {
		t.Fatalf("REL NewStreamWriter without range: %v, want ErrStreamNeedsValueRange", err)
	}
}

// TestStreamAdaptivePSNRTarget checks the headline use case end to end:
// the model-driven per-chunk bounds deliver the PSNR target (within the
// model's accuracy margin) without a single trial compression.
func TestStreamAdaptivePSNRTarget(t *testing.T) {
	f := streamField(t)
	const target = 60.0
	var buf bytes.Buffer
	w, err := rqm.NewWriter(&buf,
		rqm.WithStreamShape(f.Prec, f.Dims...),
		rqm.WithChunkSize(4096),
		rqm.WithAdaptiveBound(rqm.AdaptiveBound{TargetPSNR: target}),
		rqm.WithStreamModel(rqm.ModelOptions{SampleRate: 0.1, Seed: 3}))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteValues(f.Data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	back, err := rqm.Decompress(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	psnr, err := rqm.PSNR(f, back)
	if err != nil {
		t.Fatal(err)
	}
	if psnr < target-3 {
		t.Fatalf("adaptive stream PSNR %.2f dB misses the %g dB target", psnr, target)
	}
}

// TestInspectChunkedContainer checks Inspect describes chunked containers
// without decoding them.
func TestInspectChunkedContainer(t *testing.T) {
	f := streamField(t)
	lo, hi := f.ValueRange()
	var buf bytes.Buffer
	w, err := rqm.NewWriter(&buf,
		rqm.WithStreamShape(f.Prec, f.Dims...),
		rqm.WithStreamFieldName(f.Name),
		rqm.WithStreamValueRange(lo, hi),
		rqm.WithChunkSize(4096))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteValues(f.Data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	info, err := rqm.Inspect(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !info.Chunked || info.Version != 2 {
		t.Fatalf("info %+v, want chunked v2", info)
	}
	if info.Chunks != w.Stats().Chunks || info.TotalValues != int64(f.Len()) {
		t.Fatalf("info counts %d/%d, want %d/%d", info.Chunks, info.TotalValues, w.Stats().Chunks, f.Len())
	}
	if info.FieldName != f.Name || info.CodecName != rqm.CodecPredictionName {
		t.Fatalf("info identity %q/%q, want %q/%q", info.FieldName, info.CodecName, f.Name, rqm.CodecPredictionName)
	}
}

// TestDecompressRejectsTruncatedChunked extends the typed-error contract to
// chunked containers at the public surface.
func TestDecompressRejectsTruncatedChunked(t *testing.T) {
	f := streamField(t)
	lo, hi := f.ValueRange()
	var buf bytes.Buffer
	w, err := rqm.NewWriter(&buf, rqm.WithStreamShape(f.Prec, f.Dims...),
		rqm.WithStreamValueRange(lo, hi), rqm.WithChunkSize(2048))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteValues(f.Data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	cases := []struct {
		name string
		blob []byte
		want error
	}{
		{"header only", data[:20], rqm.ErrTruncated},
		{"mid-chunk", data[:len(data)/2], rqm.ErrTruncated},
		{"missing footer", data[:len(data)-5], rqm.ErrTruncated},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := rqm.Decompress(tc.blob); !errors.Is(err, tc.want) {
				t.Fatalf("Decompress: %v, want %v", err, tc.want)
			}
			// The streaming reader must agree (the error may surface at
			// construction or at first read).
			r, err := rqm.NewReader(bytes.NewReader(tc.blob))
			if err == nil {
				for {
					if _, err = r.NextChunk(); err != nil {
						break
					}
				}
				if err == io.EOF {
					t.Fatal("streaming reader accepted a truncated container")
				}
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("NewReader path: %v, want %v", err, tc.want)
			}
		})
	}
}

// overflowShape declares 2^65+8 values in dimensions that each pass a
// per-axis check: their product wraps int64 to 8.
var overflowShape = []uint64{8, 1380655685, 3340214413}

// absStream compresses at an absolute bound, which needs no value range.
var absStream = rqm.WithStreamCompression(rqm.CodecOptions{Mode: rqm.ABS, ErrorBound: 1e-3})

// overflowingContainer is a valid eight-value chunked container whose stream
// header is patched to declare overflowShape.
func overflowingContainer(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := rqm.NewWriter(&buf, rqm.WithStreamShape(rqm.Float64, 8, 1, 1), absStream)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteValues([]float64{1, 2, 3, 4, 5, 6, 7, 8}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for i, d := range overflowShape {
		binary.LittleEndian.PutUint64(data[8+8*i:], d) // dims follow the 8-byte prefix
	}
	return data
}

// TestOverflowingShapeRefused: a shape whose value count overflows is
// refused when a writer is built with it, and a container declaring it is
// ErrCorrupt to every reader.
func TestOverflowingShapeRefused(t *testing.T) {
	dims := []int{int(overflowShape[0]), int(overflowShape[1]), int(overflowShape[2])}
	if _, err := rqm.NewWriter(io.Discard, rqm.WithStreamShape(rqm.Float64, dims...), absStream); err == nil {
		t.Fatal("NewWriter accepted a shape of 2^65+8 values")
	}
	data := overflowingContainer(t)
	if _, err := rqm.Decompress(data); !errors.Is(err, rqm.ErrCorrupt) {
		t.Errorf("Decompress: %v, want ErrCorrupt", err)
	}
	if _, err := rqm.Inspect(data); !errors.Is(err, rqm.ErrCorrupt) {
		t.Errorf("Inspect: %v, want ErrCorrupt", err)
	}
	if _, err := rqm.ReadStreamIndex(bytes.NewReader(data)); !errors.Is(err, rqm.ErrCorrupt) {
		t.Errorf("ReadStreamIndex: %v, want ErrCorrupt", err)
	}
	if _, err := rqm.NewReader(bytes.NewReader(data)); !errors.Is(err, rqm.ErrCorrupt) {
		t.Errorf("NewReader: %v, want ErrCorrupt", err)
	}
}

// TestStreamRELMatchesWholeBuffer is the acceptance test for the REL
// streaming semantics: streamed and whole-buffer REL compression of the same
// field must enforce the same maximum absolute error, resolved once from the
// global value range — even when individual chunks span wildly different
// local ranges (which the old chunk-local resolution turned into different
// per-chunk guarantees).
func TestStreamRELMatchesWholeBuffer(t *testing.T) {
	// Four chunk-sized regions with local ranges of ~2, ~1000, 0 (constant),
	// and 16: chunk-local REL resolution would have recorded four different
	// absolute bounds for the same user setting.
	const chunk = 2048
	vals := make([]float64, 4*chunk)
	for i := 0; i < chunk; i++ {
		x := float64(i)
		vals[i] = math.Sin(x / 40)
		vals[chunk+i] = 500 * math.Cos(x/60)
		vals[2*chunk+i] = 42
		vals[3*chunk+i] = float64(i % 17)
	}
	f, err := rqm.FieldFromData("rel-equivalence", rqm.Float64, vals, len(vals))
	if err != nil {
		t.Fatal(err)
	}
	const relEB = 1e-3
	lo, hi := f.ValueRange()
	wantAbs := relEB * (hi - lo)

	eng, err := rqm.NewEngine(rqm.WithMode(rqm.REL), rqm.WithErrorBound(relEB))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w, err := eng.NewFieldStreamWriter(&buf, f, rqm.WithChunkSize(chunk))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteField(f); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Every chunk header records the stream-global absolute bound.
	idx, err := rqm.ReadStreamIndex(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(idx.Entries) != 4 {
		t.Fatalf("wrote %d chunks, want 4", len(idx.Entries))
	}
	for i, e := range idx.Entries {
		if e.AbsBound != wantAbs {
			t.Fatalf("chunk %d bound %g, want the global %g", i, e.AbsBound, wantAbs)
		}
	}

	// Both reconstructions satisfy the same absolute bound...
	streamed, err := rqm.Decompress(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Compress(f)
	if err != nil {
		t.Fatal(err)
	}
	whole, err := eng.Decompress(res.Bytes)
	if err != nil {
		t.Fatal(err)
	}
	maxErr := func(recon *rqm.Field) float64 {
		var m float64
		for i := range vals {
			if d := math.Abs(recon.Data[i] - vals[i]); d > m {
				m = d
			}
		}
		return m
	}
	slack := wantAbs * (1 + 1e-12)
	streamedErr, wholeErr := maxErr(streamed), maxErr(whole)
	if streamedErr > slack {
		t.Fatalf("streamed max error %g exceeds the global REL bound %g", streamedErr, wantAbs)
	}
	if wholeErr > slack {
		t.Fatalf("whole-buffer max error %g exceeds the global REL bound %g", wholeErr, wantAbs)
	}
	// ... and rqm.VerifyErrorBound agrees both enforce REL at the field level.
	if err := rqm.VerifyErrorBound(f, streamed, rqm.REL, relEB); err != nil {
		t.Fatalf("streamed REL verification: %v", err)
	}
	if err := rqm.VerifyErrorBound(f, whole, rqm.REL, relEB); err != nil {
		t.Fatalf("whole-buffer REL verification: %v", err)
	}
}
