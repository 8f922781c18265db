package transform

import (
	"encoding/binary"
	"errors"
	"math"
	"runtime"
	"testing"
	"testing/quick"

	"rqm/internal/compressor"
	"rqm/internal/core"
	"rqm/internal/datagen"
	"rqm/internal/grid"
	"rqm/internal/huffman"
	"rqm/internal/predictor"
	"rqm/internal/quality"
	"rqm/internal/stats"
)

func TestHaar4RoundTrip(t *testing.T) {
	f := func(a, b, c, d int32) bool {
		p := []int64{int64(a), int64(b), int64(c), int64(d)}
		want := append([]int64(nil), p...)
		haar4Fwd(p, 1)
		haar4Inv(p, 1)
		for i := range p {
			if p[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestHaar4Decorrelates(t *testing.T) {
	// A constant line transforms to (c, 0, 0, 0).
	p := []int64{7, 7, 7, 7}
	haar4Fwd(p, 1)
	if p[0] != 7 || p[1] != 0 || p[2] != 0 || p[3] != 0 {
		t.Fatalf("constant line -> %v", p)
	}
	// A linear ramp concentrates energy in the low coefficients.
	p = []int64{0, 10, 20, 30}
	haar4Fwd(p, 1)
	if abs64(p[0]) < abs64(p[3]) {
		t.Fatalf("ramp energy not concentrated: %v", p)
	}
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

func TestBlockTransformRoundTrip(t *testing.T) {
	rng := stats.NewXorShift64(3)
	for rank := 1; rank <= 4; rank++ {
		n := 1 << (2 * rank)
		buf := make([]int64, n)
		want := make([]int64, n)
		for i := range buf {
			buf[i] = int64(rng.Intn(20001) - 10000)
			want[i] = buf[i]
		}
		fwdBlock(buf)
		invBlock(buf)
		for i := range buf {
			if buf[i] != want[i] {
				t.Fatalf("rank %d: block transform not invertible at %d", rank, i)
			}
		}
	}
}

func TestCompressDecompressErrorBound(t *testing.T) {
	for _, name := range []string{"cesm/TS", "miranda/vx", "hurricane/U"} {
		f, err := datagen.GenerateField(name, 42, datagen.Tiny)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := f.ValueRange()
		for _, rel := range []float64{1e-4, 1e-2} {
			eb := rel * (hi - lo)
			res, err := Compress(f, Options{ErrorBound: eb})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			dec, err := Decompress(res.Bytes)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if err := compressor.VerifyErrorBound(f, dec, compressor.ABS, eb); err != nil {
				t.Fatalf("%s eb=%g: %v", name, eb, err)
			}
			if res.Stats.Ratio <= 1 {
				t.Errorf("%s eb=%g: ratio %.2f", name, eb, res.Stats.Ratio)
			}
		}
	}
}

func TestCompress4D(t *testing.T) {
	f, err := datagen.GenerateField("exafel/raw", 42, datagen.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := f.ValueRange()
	eb := (hi - lo) * 1e-2
	res, err := Compress(f, Options{ErrorBound: eb})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decompress(res.Bytes)
	if err != nil {
		t.Fatal(err)
	}
	if err := compressor.VerifyErrorBound(f, dec, compressor.ABS, eb); err != nil {
		t.Fatal(err)
	}
}

func TestCompressValidation(t *testing.T) {
	f := grid.MustNew("x", grid.Float32, 8)
	if _, err := Compress(nil, Options{ErrorBound: 1}); err == nil {
		t.Fatal("nil field accepted")
	}
	if _, err := Compress(f, Options{ErrorBound: 0}); err == nil {
		t.Fatal("zero bound accepted")
	}
	f.Data[0] = 1e300
	if _, err := Compress(f, Options{ErrorBound: 1e-280}); err == nil {
		t.Fatal("code overflow accepted")
	}
}

func TestDecompressRejectsCorrupt(t *testing.T) {
	if _, err := Decompress(nil); err == nil {
		t.Fatal("nil accepted")
	}
	f := grid.MustNew("x", grid.Float32, 16)
	for i := range f.Data {
		f.Data[i] = float64(i)
	}
	res, err := Compress(f, Options{ErrorBound: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decompress(res.Bytes[:8]); err == nil {
		t.Fatal("truncated accepted")
	}
	bad := append([]byte(nil), res.Bytes...)
	bad[0] ^= 0xFF
	if _, err := Decompress(bad); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestPartialEdgeBlocks(t *testing.T) {
	// 7x5: edge blocks are padded; the padding must not leak into output.
	f := grid.MustNew("p", grid.Float64, 7, 5)
	rng := stats.NewXorShift64(9)
	for i := range f.Data {
		f.Data[i] = 100 * rng.NormFloat64()
	}
	res, err := Compress(f, Options{ErrorBound: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decompress(res.Bytes)
	if err != nil {
		t.Fatal(err)
	}
	if err := compressor.VerifyErrorBound(f, dec, compressor.ABS, 0.01); err != nil {
		t.Fatal(err)
	}
}

func TestQuickErrorBoundProperty(t *testing.T) {
	f := func(seed uint64, ebExp uint8) bool {
		rng := stats.NewXorShift64(seed)
		dims := []int{5 + rng.Intn(12), 5 + rng.Intn(12)}
		fld := grid.MustNew("q", grid.Float32, dims...)
		for i := range fld.Data {
			fld.Data[i] = 50 * rng.NormFloat64()
		}
		eb := math.Pow(10, -float64(ebExp%4)) // 1..1e-3
		res, err := Compress(fld, Options{ErrorBound: eb})
		if err != nil {
			return false
		}
		dec, err := Decompress(res.Bytes)
		if err != nil {
			return false
		}
		return compressor.VerifyErrorBound(fld, dec, compressor.ABS, eb) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestModelTracksTransformBitRate(t *testing.T) {
	f, err := datagen.GenerateField("scale/PRES", 42, datagen.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := NewProfile(f, 0.3, 7, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if prof.Kind != TransformKind {
		t.Fatalf("profile kind = %v", prof.Kind)
	}
	lo, hi := f.ValueRange()
	var meas, est []float64
	for _, rel := range []float64{1e-4, 1e-3, 1e-2} {
		eb := rel * (hi - lo)
		res, err := Compress(f, Options{ErrorBound: eb})
		if err != nil {
			t.Fatal(err)
		}
		// The measured payload uses class+extra-bits coding; compare the
		// model's Huffman bit-rate against the payload bits per value.
		meas = append(meas, float64(res.Stats.PayloadBits)/float64(f.Len()))
		est = append(est, prof.EstimateAt(eb).HuffmanBitRate)
	}
	if errRate := quality.AccuracyOfEstimate(meas, est); errRate > 0.25 {
		t.Errorf("transform model bit-rate error %.1f%% (meas %v, est %v)", errRate*100, meas, est)
	}
}

func TestModelPSNRForTransform(t *testing.T) {
	f, err := datagen.GenerateField("miranda/vx", 42, datagen.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := NewProfile(f, 0.3, 7, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := f.ValueRange()
	eb := (hi - lo) * 1e-3
	res, err := Compress(f, Options{ErrorBound: eb})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decompress(res.Bytes)
	if err != nil {
		t.Fatal(err)
	}
	psnr, err := quality.PSNR(f, dec)
	if err != nil {
		t.Fatal(err)
	}
	// Value-domain quantization gives a near-uniform error: the Eq. 10
	// estimate should land within a few dB.
	if math.Abs(psnr-prof.EstimateAt(eb).PSNRUniform) > 4 {
		t.Errorf("PSNR measured %.2f vs modeled %.2f", psnr, prof.EstimateAt(eb).PSNRUniform)
	}
}

func TestTransformVsPredictionTradeoffExists(t *testing.T) {
	// Sanity for the codec-selection extension: both codecs produce valid,
	// bounded output and the comparison is meaningful (ratios within a
	// couple orders of magnitude of each other).
	f, err := datagen.GenerateField("cesm/TS", 42, datagen.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := f.ValueRange()
	eb := (hi - lo) * 1e-3
	tr, err := Compress(f, Options{ErrorBound: eb})
	if err != nil {
		t.Fatal(err)
	}
	sz, err := compressor.Compress(f, compressor.Options{
		Predictor: predictor.Lorenzo, Mode: compressor.ABS, ErrorBound: eb,
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Stats.Ratio < sz.Stats.Ratio/100 || tr.Stats.Ratio > sz.Stats.Ratio*100 {
		t.Errorf("implausible ratio gap: transform %.2f vs prediction %.2f",
			tr.Stats.Ratio, sz.Stats.Ratio)
	}
}

func BenchmarkTransformCompress(b *testing.B) {
	f, err := datagen.GenerateField("nyx/temperature", 1, datagen.Small)
	if err != nil {
		b.Fatal(err)
	}
	lo, hi := f.ValueRange()
	opts := Options{ErrorBound: (hi - lo) * 1e-3}
	b.SetBytes(f.OriginalBytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compress(f, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTransformDecompress(b *testing.B) {
	f, err := datagen.GenerateField("nyx/temperature", 1, datagen.Small)
	if err != nil {
		b.Fatal(err)
	}
	lo, hi := f.ValueRange()
	res, err := Compress(f, Options{ErrorBound: (hi - lo) * 1e-3})
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

// chunkFields splits small nyx/temperature into the 65,536-value rank-1
// chunks a stream writes (the last one shorter), returning them with the
// whole field's bytes and an ABS bound of 1e-3 of its range.
func chunkFields(tb testing.TB) ([]*grid.Field, int64, float64) {
	f, err := datagen.GenerateField("nyx/temperature", 1, datagen.Small)
	if err != nil {
		tb.Fatal(err)
	}
	var chunks []*grid.Field
	for off := 0; off < f.Len(); off += 1 << 16 {
		vals := f.Data[off:min(off+1<<16, f.Len())]
		c, err := grid.FromData(f.Name, f.Prec, vals, len(vals))
		if err != nil {
			tb.Fatal(err)
		}
		chunks = append(chunks, c)
	}
	lo, hi := f.ValueRange()
	return chunks, f.OriginalBytes(), (hi - lo) * 1e-3
}

// BenchmarkTransformChunk times the path every stream chunk takes: compress
// and decompress of 65,536-value rank-1 chunks, decoded into a reused buffer
// as the stream reader does. One op is the whole field.
func BenchmarkTransformChunk(b *testing.B) {
	chunks, size, eb := chunkFields(b)
	blobs := make([][]byte, len(chunks))
	for i, c := range chunks {
		res, err := Compress(c, Options{ErrorBound: eb})
		if err != nil {
			b.Fatal(err)
		}
		blobs[i] = res.Bytes
	}
	b.Run("compress", func(b *testing.B) {
		b.SetBytes(size)
		b.ReportAllocs()
		for range b.N {
			for _, c := range chunks {
				if _, err := Compress(c, Options{ErrorBound: eb}); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("decompress", func(b *testing.B) {
		dst := make([]float64, 1<<16)
		b.SetBytes(size)
		b.ReportAllocs()
		for range b.N {
			for _, blob := range blobs {
				if _, err := DecompressInto(dst, blob); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// hostileContainers are two native containers that declare far more than
// they hold: a 31-byte one whose codebook length says 2 GiB, and a 47-byte
// one declaring 2^15×2^14 values over a one-class codebook and a 4-byte
// payload.
func hostileContainers() (bigCodebook, bigShape []byte) {
	le := binary.LittleEndian
	head := func(dims ...uint64) []byte {
		b := le.AppendUint32(nil, containerMagic)
		b = le.AppendUint64(b, math.Float64bits(1e-3))
		b = append(b, byte(grid.Float32), byte(len(dims)))
		for _, d := range dims {
			b = le.AppendUint64(b, d)
		}
		return le.AppendUint16(b, 0) // no name
	}
	bigCodebook = append(le.AppendUint32(head(64), 1<<31), 1, 1, 1)
	bigShape = append(le.AppendUint32(head(1<<15, 1<<14), 3), 1, 1, 1)
	bigShape = append(le.AppendUint32(bigShape, 4), 0, 0, 0, 0)
	return bigCodebook, bigShape
}

// TestDecompressRefusesHostileShapes: nothing is sized by a declared length
// or shape the bytes cannot hold. Both hostile containers fail with
// grid.ErrTruncated having allocated under 1 MiB.
func TestDecompressRefusesHostileShapes(t *testing.T) {
	bigCodebook, bigShape := hostileContainers()
	if len(bigCodebook) != 31 || len(bigShape) != 47 {
		t.Fatalf("hostile containers are %d and %d bytes, want 31 and 47", len(bigCodebook), len(bigShape))
	}
	// The 47-byte container's codebook is valid: only its shape is a lie.
	if _, _, err := huffman.Parse(bigShape[36:39]); err != nil {
		t.Fatalf("the hostile shape's codebook does not parse: %v", err)
	}
	for name, data := range map[string][]byte{"2 GiB codebook": bigCodebook, "2^15×2^14 values": bigShape} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Decompress(data)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, grid.ErrTruncated) {
			t.Errorf("%s: %v, want grid.ErrTruncated", name, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
			t.Errorf("%s: Decompress allocated %d bytes before refusing %d bytes", name, grew, len(data))
		}
	}
}

// TestDecompressAllocations bounds a whole-field decode to a fixed number
// of allocations — the field and the codebook, nothing per block or per
// value — and a 65,536-value rank-1 chunk decoded into a buffer that holds
// it (the stream reader's case) to under 64 KiB.
func TestDecompressAllocations(t *testing.T) {
	f := pinField(t, 33, 17, 9)
	res, err := Compress(f, Options{ErrorBound: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(5, func() {
		if _, err := Decompress(res.Bytes); err != nil {
			t.Fatal(err)
		}
	}); a > 16 {
		t.Errorf("Decompress made %v allocations, want at most 16", a)
	}
	if a := testing.AllocsPerRun(5, func() {
		if _, err := Compress(f, Options{ErrorBound: 1e-3}); err != nil {
			t.Fatal(err)
		}
	}); a > 32 {
		t.Errorf("Compress made %v allocations, want at most 32", a)
	}

	chunk := pinField(t, 1<<16)
	res, err = Compress(chunk, Options{ErrorBound: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, 1<<16)
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		if _, err := DecompressInto(dst, res.Bytes); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 64<<10 {
		t.Errorf("a 65,536-value rank-1 DecompressInto allocated %d bytes, want under 64 KiB", per)
	}
}
