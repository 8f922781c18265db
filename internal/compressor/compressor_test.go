package compressor

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"rqm/internal/datagen"
	"rqm/internal/grid"
	"rqm/internal/predictor"
	"rqm/internal/stats"
)

func compressDecompress(t *testing.T, f *grid.Field, opts Options) (*Result, *grid.Field) {
	t.Helper()
	res, err := Compress(f, opts)
	if err != nil {
		t.Fatalf("compress %s %s eb=%g: %v", f.Name, opts.Predictor, opts.ErrorBound, err)
	}
	dec, err := Decompress(res.Bytes)
	if err != nil {
		t.Fatalf("decompress %s: %v", f.Name, err)
	}
	if err := VerifyErrorBound(f, dec, opts.Mode, opts.ErrorBound); err != nil {
		t.Fatalf("%s %s: %v", f.Name, opts.Predictor, err)
	}
	return res, dec
}

func testField(t *testing.T, name string) *grid.Field {
	t.Helper()
	f, err := datagen.GenerateField(name, 42, datagen.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestRoundTripAllPredictorsABS(t *testing.T) {
	f := testField(t, "cesm/TS")
	lo, hi := f.ValueRange()
	eb := (hi - lo) * 1e-3
	for _, kind := range []predictor.Kind{predictor.Lorenzo, predictor.Interpolation, predictor.InterpolationCubic, predictor.Regression} {
		res, dec := compressDecompress(t, f, Options{Predictor: kind, Mode: ABS, ErrorBound: eb})
		if res.Stats.Ratio <= 1 {
			t.Errorf("%s: ratio %.2f not > 1 on smooth field", kind, res.Stats.Ratio)
		}
		if dec.Rank() != f.Rank() || dec.Len() != f.Len() {
			t.Fatalf("%s: shape mismatch", kind)
		}
		if dec.Name != f.Name {
			t.Errorf("%s: name %q, want %q", kind, dec.Name, f.Name)
		}
		if dec.Prec != f.Prec {
			t.Errorf("%s: precision %v, want %v", kind, dec.Prec, f.Prec)
		}
	}
}

func TestRoundTrip1DLorenzo2(t *testing.T) {
	f := testField(t, "brown/pressure")
	lo, hi := f.ValueRange()
	for _, kind := range []predictor.Kind{predictor.Lorenzo, predictor.Lorenzo2} {
		compressDecompress(t, f, Options{Predictor: kind, Mode: ABS, ErrorBound: (hi - lo) * 1e-4})
	}
}

func TestRoundTrip4D(t *testing.T) {
	f := testField(t, "exafel/raw")
	lo, hi := f.ValueRange()
	compressDecompress(t, f, Options{Predictor: predictor.Lorenzo, Mode: ABS, ErrorBound: (hi - lo) * 1e-3})
}

func TestRoundTripRELMode(t *testing.T) {
	f := testField(t, "hurricane/U")
	res, _ := compressDecompress(t, f, Options{Predictor: predictor.Lorenzo, Mode: REL, ErrorBound: 1e-3})
	lo, hi := f.ValueRange()
	wantAbs := 1e-3 * (hi - lo)
	if math.Abs(res.Stats.AbsEB-wantAbs)/wantAbs > 1e-12 {
		t.Fatalf("AbsEB = %g, want %g", res.Stats.AbsEB, wantAbs)
	}
}

func TestRoundTripPWREL(t *testing.T) {
	f := testField(t, "nyx/dark_matter_density") // strictly positive, huge range
	compressDecompress(t, f, Options{Predictor: predictor.Lorenzo, Mode: PWREL, ErrorBound: 1e-2})
}

func TestPWRELMixedSignsAndZeros(t *testing.T) {
	f := grid.MustNew("mixed", grid.Float64, 1000)
	rng := stats.NewXorShift64(5)
	for i := range f.Data {
		switch i % 5 {
		case 0:
			f.Data[i] = 0
		case 1:
			f.Data[i] = -math.Exp(4 * rng.NormFloat64())
		default:
			f.Data[i] = math.Exp(4 * rng.NormFloat64())
		}
	}
	res, dec := compressDecompress(t, f, Options{Predictor: predictor.Lorenzo, Mode: PWREL, ErrorBound: 1e-2})
	_ = res
	for i, v := range f.Data {
		if v == 0 && dec.Data[i] != 0 {
			t.Fatalf("zero not preserved at %d", i)
		}
		if v < 0 && dec.Data[i] >= 0 {
			t.Fatalf("sign not preserved at %d", i)
		}
	}
}

// TestPWRELBitmapsAfterCorruptDecode: a PWREL decode grows the arena's two
// bitmaps one at a time, so a payload whose zeros bitmap is corrupt leaves
// the signs bitmap long and the zeros bitmap as it was. A PWREL compress
// that then draws that arena from the pool must size each bitmap on its own.
func TestPWRELBitmapsAfterCorruptDecode(t *testing.T) {
	positive := func(n int) *grid.Field {
		f := grid.MustNew("positive", grid.Float64, n)
		for i := range f.Data {
			f.Data[i] = 1 + float64(i%7)
		}
		return f
	}
	const big = 1 << 17
	opts := Options{Predictor: predictor.Lorenzo, Mode: PWREL, ErrorBound: 1e-2}
	res, err := Compress(positive(big), opts)
	if err != nil {
		t.Fatal(err)
	}
	// No value is negative or zero, so each bitmap is one zero run, 0x00
	// then uvarint(big-1), in a length-prefixed blob: signs, then zeros.
	run := binary.AppendUvarint([]byte{0}, big-1)
	blob := append(binary.LittleEndian.AppendUint32(nil, uint32(len(run))), run...)
	pair := append(slices.Clone(blob), blob...)
	at := bytes.Index(res.Bytes, pair)
	if at < 0 {
		t.Fatal("the two bitmap blobs are not in the container")
	}
	bad := slices.Clone(res.Bytes)
	bad[at+len(pair)-1] |= 0x80 // the zeros run length now ends mid-varint
	// Two collections empty the arena pool, so the decode below starts from
	// a fresh arena: it grows signs to big and leaves zeros empty.
	runtime.GC()
	runtime.GC()
	if _, err := Decompress(bad); err == nil {
		t.Fatal("a truncated zeros bitmap decoded")
	}
	for _, n := range []int{big / 2, big} {
		compressDecompress(t, positive(n), opts)
	}
}

func TestAllLosslessBackendsRoundTrip(t *testing.T) {
	// A large, nearly-affine field under a high bound makes the Huffman
	// payload zero-dominated (p0 → 1, so Huffman sits at its 1-bit floor),
	// which is exactly where the paper says the lossless stage starts to
	// matter. Every backend must shrink it.
	f := grid.MustNew("flat", grid.Float32, 128, 128)
	rng := stats.NewXorShift64(17)
	for i := range f.Data {
		f.Data[i] = 100 + 0.01*rng.NormFloat64()
	}
	var sizes []int64
	for _, ll := range []LosslessKind{LosslessNone, LosslessRLE, LosslessLZ77, LosslessFlate} {
		res, _ := compressDecompress(t, f, Options{Predictor: predictor.Lorenzo, Mode: ABS, ErrorBound: 0.5, Lossless: ll})
		if res.Stats.BitRateHuffman > 1.1 {
			t.Fatalf("test premise broken: Huffman codes %v bits/value, want near its 1-bit floor", res.Stats.BitRateHuffman)
		}
		sizes = append(sizes, res.Stats.CompressedBytes)
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i] >= sizes[0] {
			t.Errorf("lossless backend %d did not shrink the container: %d vs %d", i, sizes[i], sizes[0])
		}
	}
}

func TestHigherBoundSmallerOutput(t *testing.T) {
	f := testField(t, "miranda/vx")
	lo, hi := f.ValueRange()
	var prev int64 = math.MaxInt64
	for _, rel := range []float64{1e-5, 1e-4, 1e-3, 1e-2} {
		res, _ := compressDecompress(t, f, Options{Predictor: predictor.Interpolation, Mode: ABS, ErrorBound: rel * (hi - lo)})
		if res.Stats.CompressedBytes > prev {
			t.Fatalf("eb=%g produced larger output than a tighter bound", rel)
		}
		prev = res.Stats.CompressedBytes
	}
}

func TestUnpredictableValuesPath(t *testing.T) {
	// A bound this tight puts most codes past ±quantizer.DefaultRadius →
	// unpredictable path.
	f := testField(t, "hurricane/U")
	lo, hi := f.ValueRange()
	res, dec := compressDecompress(t, f, Options{
		Predictor: predictor.Lorenzo, Mode: ABS, ErrorBound: (hi - lo) * 1e-10,
	})
	if res.Stats.Unpredictable == 0 {
		t.Fatal("expected unpredictable values at a 1e-10 relative bound")
	}
	// Unpredictable values must reconstruct exactly (they are stored raw).
	_ = dec
}

func TestStatsConsistency(t *testing.T) {
	f := testField(t, "cesm/TS")
	lo, hi := f.ValueRange()
	res, _ := compressDecompress(t, f, Options{Predictor: predictor.Lorenzo, Mode: ABS, ErrorBound: (hi - lo) * 1e-3})
	st := res.Stats
	if st.N != f.Len() {
		t.Fatalf("N = %d", st.N)
	}
	if st.CompressedBytes != int64(len(res.Bytes)) {
		t.Fatalf("CompressedBytes = %d, len = %d", st.CompressedBytes, len(res.Bytes))
	}
	if st.BitRate <= 0 || st.Ratio <= 0 {
		t.Fatalf("BitRate/Ratio = %v/%v", st.BitRate, st.Ratio)
	}
	wantBR := float64(st.CompressedBytes) * 8 / float64(st.N)
	if math.Abs(st.BitRate-wantBR) > 1e-9 {
		t.Fatalf("BitRate = %v, want %v", st.BitRate, wantBR)
	}
}

func TestInvalidInputs(t *testing.T) {
	f := testField(t, "cesm/TS")
	if _, err := Compress(nil, Options{ErrorBound: 1}); err == nil {
		t.Fatal("nil field accepted")
	}
	if _, err := Compress(f, Options{ErrorBound: 0}); err == nil {
		t.Fatal("zero error bound accepted")
	}
	if _, err := Compress(f, Options{ErrorBound: -1}); err == nil {
		t.Fatal("negative error bound accepted")
	}
	if _, err := Compress(f, Options{Predictor: predictor.Lorenzo2, ErrorBound: 1}); err == nil {
		t.Fatal("rank-2 field with 1D-only predictor accepted")
	}
}

func TestDecompressRejectsCorrupt(t *testing.T) {
	f := testField(t, "cesm/TS")
	lo, hi := f.ValueRange()
	res, err := Compress(f, Options{Predictor: predictor.Lorenzo, Mode: ABS, ErrorBound: (hi - lo) * 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decompress(nil); err == nil {
		t.Fatal("nil container accepted")
	}
	if _, err := Decompress(res.Bytes[:10]); err == nil {
		t.Fatal("truncated container accepted")
	}
	bad := append([]byte(nil), res.Bytes...)
	bad[0] ^= 0xFF
	if _, err := Decompress(bad); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestParseHelpers(t *testing.T) {
	for _, m := range []ErrorMode{ABS, REL, PWREL} {
		got, err := ParseErrorMode(m.String())
		if err != nil || got != m {
			t.Fatalf("ParseErrorMode(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := ParseErrorMode("nope"); err == nil {
		t.Fatal("bad mode accepted")
	}
}

// Property: error bound holds for random fields, bounds, and predictors.
func TestQuickErrorBoundHolds(t *testing.T) {
	kinds := []predictor.Kind{predictor.Lorenzo, predictor.Interpolation, predictor.Regression}
	f := func(seed uint64, ebExp uint8, kindIdx uint8) bool {
		rng := stats.NewXorShift64(seed)
		dims := []int{8 + rng.Intn(9), 8 + rng.Intn(9)}
		fld := grid.MustNew("q", grid.Float32, dims...)
		for i := range fld.Data {
			fld.Data[i] = 100 * rng.NormFloat64()
		}
		eb := math.Pow(10, -float64(ebExp%5)) // 1 .. 1e-4
		opts := Options{Predictor: kinds[int(kindIdx)%len(kinds)], Mode: ABS, ErrorBound: eb}
		res, err := Compress(fld, opts)
		if err != nil {
			return false
		}
		dec, err := Decompress(res.Bytes)
		if err != nil {
			return false
		}
		return VerifyErrorBound(fld, dec, ABS, eb) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestRegressionAllocations: the regression walk fits and walks each block
// on the stack, so a whole-field compress or decompress makes a fixed
// number of allocations however many blocks the field has.
func TestRegressionAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the arena's sync.Pool drops Puts under the race detector")
	}
	f := kernelField(t, 30, 30, 30)
	for i := 96; i < f.Len(); i += 97 {
		f.Data[i] = 0 // no raw-stored outliers: their count would grow with the field
	}
	opts := Options{Predictor: predictor.Regression, Mode: ABS, ErrorBound: 1e-3}
	res, err := Compress(f, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(3, func() { _, _ = Compress(f, opts) }); a > 48 {
		t.Errorf("Compress made %v allocations over %d blocks", a, len(grid.Blocks(f.Dims, predictor.RegressionBlockEdge)))
	}
	if a := testing.AllocsPerRun(3, func() { _, _ = Decompress(res.Bytes) }); a > 24 {
		t.Errorf("Decompress made %v allocations over %d blocks", a, len(grid.Blocks(f.Dims, predictor.RegressionBlockEdge)))
	}
}

func BenchmarkCompressLorenzo3D(b *testing.B) {
	f, err := datagen.GenerateField("nyx/temperature", 1, datagen.Small)
	if err != nil {
		b.Fatal(err)
	}
	lo, hi := f.ValueRange()
	opts := Options{Predictor: predictor.Lorenzo, Mode: ABS, ErrorBound: (hi - lo) * 1e-3, Lossless: LosslessRLE}
	b.SetBytes(f.OriginalBytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compress(f, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecompressLorenzo3D(b *testing.B) {
	f, err := datagen.GenerateField("nyx/temperature", 1, datagen.Small)
	if err != nil {
		b.Fatal(err)
	}
	lo, hi := f.ValueRange()
	res, err := Compress(f, Options{Predictor: predictor.Lorenzo, Mode: ABS, ErrorBound: (hi - lo) * 1e-3})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(f.OriginalBytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decompress(res.Bytes); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecompressLorenzo1DChunk decodes one chunk at the shape the
// stream writer codes every chunk at: 65,536 values as a rank-1 field,
// order-1 Lorenzo, ABS at 1e-3 of the chunk's range.
func BenchmarkDecompressLorenzo1DChunk(b *testing.B) {
	f, err := datagen.GenerateField("nyx/temperature", 1, datagen.Small)
	if err != nil {
		b.Fatal(err)
	}
	chunk, err := grid.FromData("chunk", f.Prec, f.Data[:1<<16], 1<<16)
	if err != nil {
		b.Fatal(err)
	}
	lo, hi := chunk.ValueRange()
	res, err := Compress(chunk, Options{Predictor: predictor.Lorenzo, Mode: ABS, ErrorBound: (hi - lo) * 1e-3})
	if err != nil {
		b.Fatal(err)
	}
	dst := make([]float64, chunk.Len())
	b.SetBytes(chunk.OriginalBytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecompressInto(dst, res.Bytes); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompressLorenzo1DChunk compresses the chunk
// BenchmarkDecompressLorenzo1DChunk decodes, at the same bound, and reports
// the predict+quantize and entropy stages per value from Result.Stats.
func BenchmarkCompressLorenzo1DChunk(b *testing.B) {
	f, err := datagen.GenerateField("nyx/temperature", 1, datagen.Small)
	if err != nil {
		b.Fatal(err)
	}
	chunk, err := grid.FromData("chunk", f.Prec, f.Data[:1<<16], 1<<16)
	if err != nil {
		b.Fatal(err)
	}
	lo, hi := chunk.ValueRange()
	opts := Options{Predictor: predictor.Lorenzo, Mode: ABS, ErrorBound: (hi - lo) * 1e-3}
	var predict, encode time.Duration
	b.SetBytes(chunk.OriginalBytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Compress(chunk, opts)
		if err != nil {
			b.Fatal(err)
		}
		predict += res.Stats.PredictTime
		encode += res.Stats.EncodeTime
	}
	vals := float64(b.N) * float64(chunk.Len())
	b.ReportMetric(float64(predict.Nanoseconds())/vals, "predict-ns/val")
	b.ReportMetric(float64(encode.Nanoseconds())/vals, "encode-ns/val")
}

// TestVerifyErrorBoundNonFinite pins the bound check on values outside the
// reals: a finite original reconstructed as NaN or ±Inf fails, a NaN
// original needs NaN back, and ±Inf needs the same signed infinity — under
// ABS and PWREL alike. An exact reconstruction of each still passes.
func TestVerifyErrorBoundNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	field := func(v float64) *grid.Field {
		f, err := grid.FromData("nf", grid.Float64, []float64{1, v, 2}, 3)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	for _, mode := range []ErrorMode{ABS, PWREL} {
		for _, tc := range []struct {
			orig, recon float64
			ok          bool
		}{
			{0.5, nan, false},
			{0.5, inf, false},
			{0.5, 0.5 + 1e-4, true},
			{nan, 0.5, false},
			{nan, inf, false},
			{nan, nan, true},
			{inf, nan, false},
			{inf, -inf, false},
			{inf, math.MaxFloat64, false},
			{inf, inf, true},
			{-inf, inf, false},
			{-inf, -inf, true},
			{0, nan, false},
			{0, 0, true},
		} {
			err := VerifyErrorBound(field(tc.orig), field(tc.recon), mode, 1e-3)
			if (err == nil) != tc.ok {
				t.Errorf("%s: %v reconstructed as %v: err %v, want ok=%v", mode, tc.orig, tc.recon, err, tc.ok)
			}
		}
	}
}
