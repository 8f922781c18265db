package stream

import (
	"bytes"
	"errors"
	"io"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rqm/internal/codec"
	"rqm/internal/compressor"
	"rqm/internal/core"
	"rqm/internal/grid"
	"rqm/internal/poison"
)

// waveValues synthesizes a mildly compressible test signal.
func waveValues(n int) []float64 {
	vals := make([]float64, n)
	for i := range vals {
		x := float64(i)
		vals[i] = math.Sin(x/50) + 0.25*math.Sin(x/7) + 0.01*float64(i%13)
	}
	return vals
}

// roundTrip writes vals through a Writer and reads them back both ways.
func roundTrip(t *testing.T, vals []float64, wopts []Option, ropts []ReaderOption) ([]float64, Stats) {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, wopts...)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteValues(vals); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()), ropts...)
	if err != nil {
		t.Fatal(err)
	}
	var got []float64
	for {
		chunk, err := r.NextChunk()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, chunk...)
	}
	// The sequential whole-buffer decode must agree bit for bit.
	whole, err := codec.Decompress(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(whole.Data) != len(got) {
		t.Fatalf("pipeline decoded %d values, whole-buffer %d", len(got), len(whole.Data))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(whole.Data[i]) {
			t.Fatalf("value %d: pipeline %x, whole-buffer %x",
				i, math.Float64bits(got[i]), math.Float64bits(whole.Data[i]))
		}
	}
	return got, w.Stats()
}

// TestWriterReaderRoundTrip drives the pipeline across chunk geometries and
// worker counts; run under -race this is the pipeline's concurrency test.
func TestWriterReaderRoundTrip(t *testing.T) {
	cases := []struct {
		name       string
		n          int
		chunk      int
		workers    int
		wantChunks int
	}{
		{"one chunk", 100, 256, 1, 1},
		{"boundary exact", 512, 256, 2, 2},
		{"partial tail", 1000, 256, 4, 4},
		{"many small chunks", 3000, 64, 4, 47},
		{"single worker", 1000, 128, 1, 8},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			vals := waveValues(tc.n)
			got, st := roundTrip(t, vals,
				[]Option{
					WithChunkValues(tc.chunk),
					WithWorkers(tc.workers),
					WithCompression(codec.Options{Mode: compressor.ABS, ErrorBound: 1e-3}),
				},
				[]ReaderOption{WithReaderWorkers(tc.workers)})
			if len(got) != tc.n {
				t.Fatalf("decoded %d values, want %d", len(got), tc.n)
			}
			if st.Chunks != tc.wantChunks {
				t.Fatalf("wrote %d chunks, want %d", st.Chunks, tc.wantChunks)
			}
			if st.Values != int64(tc.n) {
				t.Fatalf("stats report %d values, want %d", st.Values, tc.n)
			}
			for i := range vals {
				if d := got[i] - vals[i]; d > 1e-3 || d < -1e-3 {
					t.Fatalf("value %d: |%g - %g| breaks the 1e-3 bound", i, got[i], vals[i])
				}
			}
		})
	}
}

// TestEmptyStream checks a zero-value stream produces a valid container
// that reads back as empty.
func TestEmptyStream(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, WithChunkValues(64), WithValueRange(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if st := w.Stats(); st.Chunks != 0 || st.Values != 0 {
		t.Fatalf("stats %+v, want empty", st)
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.NextChunk(); err != io.EOF {
		t.Fatalf("NextChunk on empty stream: %v, want io.EOF", err)
	}
	r2, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r2.ReadAll(); !errors.Is(err, ErrEmptyStream) {
		t.Fatalf("ReadAll on empty stream: %v, want ErrEmptyStream", err)
	}
}

// TestByteInterfaces pipes raw sample bytes through Writer.Write and back
// out Reader.Read, in both precisions, with deliberately misaligned writes.
func TestByteInterfaces(t *testing.T) {
	for _, prec := range []grid.Precision{grid.Float32, grid.Float64} {
		vals := waveValues(500)
		width := prec.Bits() / 8
		raw := make([]byte, 0, len(vals)*width)
		f, err := grid.FromData("bytes", prec, append([]float64(nil), vals...), len(vals))
		if err != nil {
			t.Fatal(err)
		}
		var enc bytes.Buffer
		if _, err := f.WriteTo(&enc); err != nil {
			t.Fatal(err)
		}
		raw = enc.Bytes()[8*2+8:] // skip the .rqmf header: magic, meta, one dim

		var buf bytes.Buffer
		w, err := NewWriter(&buf,
			WithShape(prec, len(vals)),
			WithChunkValues(128),
			WithCompression(codec.Options{Mode: compressor.ABS, ErrorBound: 1e-3}))
		if err != nil {
			t.Fatal(err)
		}
		// Feed in awkward slices to exercise the partial-value carry.
		for off := 0; off < len(raw); {
			n := 13
			if off+n > len(raw) {
				n = len(raw) - off
			}
			if _, err := w.Write(raw[off : off+n]); err != nil {
				t.Fatal(err)
			}
			off += n
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}

		r, err := NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		out, err := io.ReadAll(r)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != len(raw) {
			t.Fatalf("prec %d: read %d bytes, want %d", prec, len(out), len(raw))
		}
		// Decode and check the bound value-wise.
		back, err := codec.Decompress(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		for i := range vals {
			ref := f.Data[i] // float32 storage already rounds the original
			if d := back.Data[i] - ref; d > 1e-3 || d < -1e-3 {
				t.Fatalf("prec %d value %d: |%g - %g| breaks the bound", prec, i, back.Data[i], ref)
			}
		}
	}
}

// TestWriteField: a stream of known shape writes the .rqmf field its
// whole-buffer decode would, byte for byte, and serializing it through Read
// costs one fixed buffer per Reader on top of decoding the chunks (at most
// 0.6 B/value), not a copy of every chunk.
func TestWriteField(t *testing.T) {
	const n = 1 << 18
	for _, prec := range []grid.Precision{grid.Float32, grid.Float64} {
		var buf bytes.Buffer
		w, err := NewWriter(&buf, WithShape(prec, 64, n/64), WithChunkValues(1<<16), WithWorkers(2),
			WithCompression(codec.Options{Mode: compressor.ABS, ErrorBound: 1e-3}))
		if err != nil {
			t.Fatal(err)
		}
		if err := w.WriteValues(waveValues(n)); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		whole, err := codec.Decompress(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		var want, got bytes.Buffer
		if _, err := whole.WriteTo(&want); err != nil {
			t.Fatal(err)
		}
		r, err := NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if m, err := r.WriteField(&got); err != nil || m != int64(got.Len()) || !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("float%d: WriteField wrote %d bytes (%d reported), %v; want the %d bytes of WriteTo",
				prec, got.Len(), m, err, want.Len())
		}

		if poison.Enabled {
			continue // pooled decode buffers allocate unevenly under the race detector
		}
		// Read decodes into pooled chunk buffers and recycles them once
		// serialized, and the payloads it reads are pooled too: what is
		// left is mostly Read's own 32 KiB sample buffer (0.125 B/value
		// here). Before the pools it was 8 B/value and more.
		copied := readAllocs(t, buf.Bytes())
		if perValue := float64(copied) / n; perValue > 0.25 {
			t.Errorf("float%d: Read allocates %.2f B/value, want at most 0.25", prec, perValue)
		}
	}
}

// readAllocs is the fewest bytes that reading the stream in data through
// Read to the end allocated, over three runs. The runs share one P with the
// collector off, so the count is Read's own steady state: sync.Pool caches
// are per P, and under CPU load a worker that moves to another P misses the
// buffer its last chunk put back, while a collection empties the pools
// outright — either way a pooled buffer is allocated again and counted
// against Read.
func readAllocs(t *testing.T, data []byte) uint64 {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	least := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r, err := NewReader(bytes.NewReader(data), WithReaderWorkers(2))
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, r)
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestNextChunkOwnsItsValues: the slices NextChunk returns are the caller's
// — another Reader recycling pooled chunk buffers afterwards must not touch
// them — while Read and ReadAll, which return their buffers, still
// reassemble the stream exactly.
func TestNextChunkOwnsItsValues(t *testing.T) {
	const n = 1 << 16
	var buf bytes.Buffer
	w, err := NewWriter(&buf, WithChunkValues(1<<12), WithWorkers(2),
		WithCompression(codec.Options{Mode: compressor.ABS, ErrorBound: 1e-3}))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteValues(waveValues(n)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	want, err := codec.Decompress(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()), WithReaderWorkers(3))
	if err != nil {
		t.Fatal(err)
	}
	var kept [][]float64
	for {
		vals, err := r.NextChunk()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		kept = append(kept, vals)
	}
	for range 3 {
		r, err := NewReader(bytes.NewReader(buf.Bytes()), WithReaderWorkers(3))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, r); err != nil {
			t.Fatal(err)
		}
		if r, err = NewReader(bytes.NewReader(buf.Bytes()), WithReaderWorkers(3)); err != nil {
			t.Fatal(err)
		}
		if f, err := r.ReadAll(); err != nil || !equalBits(f.Data, want.Data) {
			t.Fatalf("ReadAll over recycled buffers differs from Decompress: %v", err)
		}
	}
	var got []float64
	for _, vals := range kept {
		got = append(got, vals...)
	}
	if !equalBits(got, want.Data) {
		t.Fatal("a NextChunk slice changed after other Readers recycled the chunk buffers")
	}
}

func equalBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestShapeCountMismatch checks Close enforces the WithShape contract: a
// declared shape with a different written value count must fail rather
// than emit a container whose header lies about its contents.
func TestShapeCountMismatch(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, WithShape(grid.Float64, 32, 32), WithChunkValues(100), WithValueRange(-2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteValues(waveValues(1000)); err != nil { // shape wants 1024
		t.Fatal(err)
	}
	if err := w.Close(); err == nil {
		t.Fatal("Close accepted 1000 values against a 32x32 shape")
	}
}

// TestTrailingPartialValue checks Close rejects a stream whose byte count
// does not form whole values.
func TestTrailingPartialValue(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, WithShape(grid.Float64), WithValueRange(-2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(make([]byte, 11)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err == nil {
		t.Fatal("Close accepted a trailing partial value")
	}
}

// TestShapeRecovery checks the header shape reassembles the original field.
func TestShapeRecovery(t *testing.T) {
	dims := []int{6, 7, 8}
	vals := waveValues(6 * 7 * 8)
	var buf bytes.Buffer
	w, err := NewWriter(&buf,
		WithShape(grid.Float64, dims...), WithName("cube"), WithChunkValues(100),
		WithValueRange(-2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteValues(vals); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	f, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if f.Name != "cube" || f.Rank() != 3 || f.Dims[0] != 6 || f.Dims[1] != 7 || f.Dims[2] != 8 {
		t.Fatalf("reassembled %q %v, want cube [6 7 8]", f.Name, f.Dims)
	}
}

// TestAdaptiveBoundPolicies checks both targets steer per-chunk bounds and
// that chunk bounds actually vary across heterogeneous data.
func TestAdaptiveBoundPolicies(t *testing.T) {
	// Heterogeneous stream: quiet half then loud half.
	n := 4096
	vals := make([]float64, 2*n)
	for i := 0; i < n; i++ {
		vals[i] = 0.001 * math.Sin(float64(i)/30)
		vals[n+i] = 100*math.Sin(float64(i)/3) + float64(i%17)
	}
	mopts := core.Options{SampleRate: 0.2, Seed: 9}

	t.Run("ratio target", func(t *testing.T) {
		got, st := roundTrip(t, vals,
			[]Option{
				WithChunkValues(n), WithWorkers(2),
				WithAdaptive(AdaptiveBound{TargetRatio: 8}),
				WithModel(mopts),
			}, nil)
		if len(got) != len(vals) {
			t.Fatalf("decoded %d values, want %d", len(got), len(vals))
		}
		if st.MinBound == st.MaxBound {
			t.Fatalf("adaptive bounds did not vary: [%g, %g]", st.MinBound, st.MaxBound)
		}
		if st.Ratio < 4 {
			t.Fatalf("ratio %.2f nowhere near the target 8", st.Ratio)
		}
	})

	t.Run("psnr target", func(t *testing.T) {
		_, st := roundTrip(t, vals,
			[]Option{
				WithChunkValues(n), WithWorkers(2),
				WithAdaptive(AdaptiveBound{TargetPSNR: 80}),
				WithModel(mopts),
			}, nil)
		if st.MinBound == st.MaxBound {
			t.Fatalf("adaptive bounds did not vary: [%g, %g]", st.MinBound, st.MaxBound)
		}
	})

	t.Run("constant chunks fall back", func(t *testing.T) {
		flat := make([]float64, 300)
		got, _ := roundTrip(t, flat,
			[]Option{
				WithChunkValues(100),
				WithAdaptive(AdaptiveBound{TargetRatio: 10}),
			}, nil)
		for i, v := range got {
			if math.Abs(v) > 1e-6 {
				t.Fatalf("constant stream value %d decoded to %g", i, v)
			}
		}
	})
}

// TestAdaptiveBoundValidation checks malformed policies are rejected at
// construction.
func TestAdaptiveBoundValidation(t *testing.T) {
	bad := []AdaptiveBound{
		{},
		{TargetRatio: 2, TargetPSNR: 60},
		{TargetRatio: 0.5},
		{TargetPSNR: -3},
	}
	for i, a := range bad {
		if _, err := NewWriter(io.Discard, WithAdaptive(a)); err == nil {
			t.Fatalf("case %d: NewWriter accepted invalid policy %+v", i, a)
		}
	}
}

// TestWriterErrorPropagation checks a failing sink poisons the pipeline
// without deadlocking and surfaces the error from Close.
func TestWriterErrorPropagation(t *testing.T) {
	w, err := NewWriter(&failAfter{limit: 50}, WithChunkValues(32), WithWorkers(2), WithValueRange(-2, 2))
	if err != nil {
		t.Fatal(err)
	}
	werr := w.WriteValues(waveValues(10000))
	cerr := w.Close()
	if werr == nil && cerr == nil {
		t.Fatal("pipeline swallowed the sink error")
	}
}

// failAfter errors every write past a byte budget.
type failAfter struct{ n, limit int }

func (f *failAfter) Write(p []byte) (int, error) {
	f.n += len(p)
	if f.n > f.limit {
		return 0, errors.New("sink full")
	}
	return len(p), nil
}

// TestReaderEarlyClose abandons a stream mid-read; the feeder and workers
// must exit without deadlock (the -race build also checks their shutdown).
func TestReaderEarlyClose(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, WithChunkValues(64), WithWorkers(2), WithValueRange(-2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteValues(waveValues(2000)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()), WithReaderWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.NextChunk(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentStreams runs several writer/reader pipelines at once; with
// -race this shakes out shared-state races across Writer instances.
func TestConcurrentStreams(t *testing.T) {
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			vals := waveValues(1500 + 111*seed)
			var buf bytes.Buffer
			w, err := NewWriter(&buf, WithChunkValues(128), WithWorkers(2), WithValueRange(-2, 2))
			if err != nil {
				t.Error(err)
				return
			}
			if err := w.WriteValues(vals); err != nil {
				t.Error(err)
				return
			}
			if err := w.Close(); err != nil {
				t.Error(err)
				return
			}
			r, err := NewReader(bytes.NewReader(buf.Bytes()), WithReaderWorkers(2))
			if err != nil {
				t.Error(err)
				return
			}
			f, err := r.ReadAll()
			if err != nil {
				t.Error(err)
				return
			}
			if f.Len() != len(vals) {
				t.Errorf("stream %d: decoded %d values, want %d", seed, f.Len(), len(vals))
			}
		}(i)
	}
	wg.Wait()
}

// TestReaderRejectsCorruptChunk checks mid-stream corruption surfaces as a
// typed error from the pipeline reader, in order.
func TestReaderRejectsCorruptChunk(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, WithChunkValues(64), WithValueRange(-2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteValues(waveValues(640)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	idx, err := codec.LoadIndex(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	data := append([]byte(nil), buf.Bytes()...)
	e := idx.Entries[5]
	data[e.Offset+30] ^= 0xFF // flip a payload byte in chunk 5

	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var sawErr error
	good := 0
	for {
		_, err := r.NextChunk()
		if err != nil {
			sawErr = err
			break
		}
		good++
	}
	if !errors.Is(sawErr, codec.ErrChecksum) {
		t.Fatalf("corrupt chunk surfaced as %v, want ErrChecksum", sawErr)
	}
	if good != 5 {
		t.Fatalf("decoded %d chunks before the corrupt one, want 5", good)
	}
}

// trackingReader flags Reads that happen after the owner reclaims the
// source — the exclusive-ownership contract Reader.Close guarantees.
type trackingReader struct {
	r         io.Reader
	reclaimed atomic.Bool
	violated  atomic.Bool
}

func (tr *trackingReader) Read(p []byte) (int, error) {
	if tr.reclaimed.Load() {
		tr.violated.Store(true)
	}
	return tr.r.Read(p)
}

// TestCloseReclaimsSource pins Reader.Close's ownership guarantee: after
// Close returns — including the implicit Close on a mid-stream error — the
// feeder goroutine must never touch the source again, because the serving
// layer immediately drains the request body it wrapped. CRC failures are
// the interesting case: they are detected on the worker pool, so the feeder
// is still parsing ahead when the consumer sees the error.
func TestCloseReclaimsSource(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, WithChunkValues(64), WithValueRange(-2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteValues(waveValues(640)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	idx, err := codec.LoadIndex(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	data := append([]byte(nil), buf.Bytes()...)
	data[idx.Entries[2].Offset+30] ^= 0xFF

	tr := &trackingReader{r: bytes.NewReader(data)}
	r, err := NewReader(tr, WithReaderWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := r.NextChunk(); err != nil {
			break // ErrChecksum from chunk 2; NextChunk closes implicitly
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	tr.reclaimed.Store(true)
	if tr.violated.Load() {
		t.Fatal("feeder read from the source after Close returned")
	}
}

// TestRELWithoutRangeFails pins the explicit-error contract: a REL-mode
// writer with no declared stream-global range must fail at construction
// instead of silently resolving the bound against each chunk's local range.
func TestRELWithoutRangeFails(t *testing.T) {
	if _, err := NewWriter(io.Discard, WithChunkValues(64)); !errors.Is(err, ErrNeedValueRange) {
		t.Fatalf("default REL writer without a range: %v, want ErrNeedValueRange", err)
	}
	// An adaptive policy replaces mode and bound per chunk, so it needs none.
	w, err := NewWriter(io.Discard, WithAdaptive(AdaptiveBound{TargetPSNR: 60}))
	if err != nil {
		t.Fatalf("adaptive writer rejected without a range: %v", err)
	}
	w.Close()
	// And ABS mode never needed one.
	w, err = NewWriter(io.Discard,
		WithCompression(codec.Options{Mode: compressor.ABS, ErrorBound: 1e-3}))
	if err != nil {
		t.Fatalf("ABS writer rejected without a range: %v", err)
	}
	w.Close()
}

// TestConstantChunkRecordsEnforcedBound covers the chunk-header bound of a
// constant chunk inside a REL stream: the header must record the enforced
// stream-global absolute bound (eb x global range), not the raw relative
// bound — for a chunk of constant 1e6 values those differ by nine orders of
// magnitude.
func TestConstantChunkRecordsEnforcedBound(t *testing.T) {
	const chunk = 256
	vals := make([]float64, 2*chunk)
	for i := 0; i < chunk; i++ {
		vals[i] = 1e6                  // constant chunk, local range 0
		vals[chunk+i] = float64(4 * i) // varying chunk, local range 1020
	}
	const relEB = 1e-3
	lo, hi := 0.0, 1e6 // stream-global range
	var buf bytes.Buffer
	w, err := NewWriter(&buf,
		WithChunkValues(chunk),
		WithValueRange(lo, hi),
		WithCompression(codec.Options{Mode: compressor.REL, ErrorBound: relEB}))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteValues(vals); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	idx, err := codec.LoadIndex(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(idx.Entries) != 2 {
		t.Fatalf("wrote %d chunks, want 2", len(idx.Entries))
	}
	want := relEB * (hi - lo)
	for i, e := range idx.Entries {
		if e.AbsBound != want {
			t.Fatalf("chunk %d header bound %g, want the enforced %g", i, e.AbsBound, want)
		}
	}
	if st := w.Stats(); st.MinBound != want || st.MaxBound != want {
		t.Fatalf("stats bounds [%g, %g], want [%g, %g]", st.MinBound, st.MaxBound, want, want)
	}
	// The reconstruction must actually satisfy the recorded bound.
	f, err := codec.Decompress(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if d := math.Abs(f.Data[i] - vals[i]); d > want*(1+1e-12) {
			t.Fatalf("value %d: |%g - %g| breaks the recorded bound %g", i, f.Data[i], vals[i], want)
		}
	}
}

// TestZeroLengthStreamRoundTrip round-trips a stream holding zero values
// through both the value and the byte interfaces: the container must stay
// structurally valid (indexable, zero entries) and read back as empty.
func TestZeroLengthStreamRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, WithChunkValues(64), WithValueRange(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteValues(nil); err != nil {
		t.Fatal(err)
	}
	if n, err := w.Write(nil); n != 0 || err != nil {
		t.Fatalf("Write(nil) = %d, %v", n, err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	idx, err := codec.LoadIndex(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(idx.Entries) != 0 || idx.TotalValues != 0 {
		t.Fatalf("index %d entries / %d values, want empty", len(idx.Entries), idx.TotalValues)
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// The byte interface drains cleanly: io.Copy sees immediate EOF.
	n, err := io.Copy(io.Discard, r)
	if n != 0 || err != nil {
		t.Fatalf("io.Copy on empty stream = %d bytes, %v", n, err)
	}
	if r.Values() != 0 {
		t.Fatalf("reader consumed %d values from an empty stream", r.Values())
	}
}

// TestWorkerPanicFailsTyped: a panic on a pool worker — decode or compress —
// is that chunk's error, wrapping codec.ErrCorrupt and delivered in order,
// not the end of the process. The chunks before the panicking one decode.
func TestWorkerPanicFailsTyped(t *testing.T) {
	vals := waveValues(1000) // chunks of 256, 256, 256 and a short 232
	const short = 232
	var buf bytes.Buffer
	w, err := NewWriter(&buf, WithChunkValues(256), WithWorkers(2), WithValueRange(-2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteValues(vals); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()

	decodeChunkInto = func(dst []float64, c *codec.Chunk) ([]float64, error) {
		if c.Values == short {
			panic("decoder bug")
		}
		return codec.DecodeChunkInto(dst, c)
	}
	t.Cleanup(func() { decodeChunkInto = codec.DecodeChunkInto })
	r, err := NewReader(bytes.NewReader(blob), WithReaderWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := r.NextChunk(); err != nil {
			t.Fatalf("chunk %d, before the panicking one: %v", i, err)
		}
	}
	if _, err := r.NextChunk(); !errors.Is(err, codec.ErrCorrupt) {
		t.Fatalf("NextChunk on the panicking chunk: %v, want codec.ErrCorrupt", err)
	}
	r, err = NewReader(bytes.NewReader(blob), WithReaderWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadAll(); !errors.Is(err, codec.ErrCorrupt) {
		t.Fatalf("ReadAll: %v, want codec.ErrCorrupt", err)
	}

	compressChunk = func(w *Writer, j job) (*codec.Chunk, error) {
		if len(j.vals) == short {
			panic("compressor bug")
		}
		return w.compressChunk(j)
	}
	t.Cleanup(func() { compressChunk = (*Writer).compressChunk })
	w, err = NewWriter(io.Discard, WithChunkValues(256), WithWorkers(2), WithValueRange(-2, 2))
	if err != nil {
		t.Fatal(err)
	}
	werr := w.WriteValues(vals)
	if cerr := w.Close(); !errors.Is(cerr, codec.ErrCorrupt) {
		t.Fatalf("Close after a compressor panic: %v (WriteValues: %v), want codec.ErrCorrupt", cerr, werr)
	}
}

// TestReadAfterCloseIsErrClosed: once Close returns, NextChunk, Read and
// ReadAll answer ErrClosed at once. Close used to be able to leave a result
// slot queued with no job behind it, so a later NextChunk hung on it, or
// handed back the chunks already decoded and then io.EOF, as if a truncated
// stream had ended cleanly.
func TestReadAfterCloseIsErrClosed(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, WithChunkValues(64), WithValueRange(-2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteValues(waveValues(50 * 64)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	ops := []string{"NextChunk", "Read", "ReadAll"}
	for trial := range 200 {
		r, err := NewReader(bytes.NewReader(buf.Bytes()), WithReaderWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.NextChunk(); err != nil {
			t.Fatal(err)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		done := make(chan [3]error, 1)
		go func() {
			var errs [3]error
			_, errs[0] = r.NextChunk()
			_, errs[1] = r.Read(make([]byte, 8))
			_, errs[2] = r.ReadAll()
			done <- errs
		}()
		select {
		case errs := <-done:
			for i, err := range errs {
				if err != ErrClosed {
					t.Fatalf("trial %d: %s after Close: %v, want ErrClosed", trial, ops[i], err)
				}
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("trial %d: reading a closed Reader hangs", trial)
		}
	}
}
