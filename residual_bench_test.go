package rqm_test

import (
	"io"
	"testing"

	"rqm"
	"rqm/internal/residual"
	"rqm/internal/store"
)

// Residual-layer benchmarks, beside the store round trip: the cost of
// building the lossless layer at put time (encode: XOR against the
// reconstruction, byte-plane transposition, per-plane entropy coding) and of
// serving it at read time (exact read: chunk decode + residual block decode +
// XOR apply).

// BenchmarkResidualEncode measures framing one field's residual against its
// lossy reconstruction — the marginal cost ?exact=1 adds to a dataset put.
func BenchmarkResidualEncode(b *testing.B) {
	_, eng, f, _ := storeBenchSetup(b)
	res, err := eng.Compress(f)
	if err != nil {
		b.Fatal(err)
	}
	recon, err := eng.Decompress(res.Bytes)
	if err != nil {
		b.Fatal(err)
	}
	c, err := residual.ByName(residual.DefaultBackend)
	if err != nil {
		b.Fatal(err)
	}
	// Block to the same 64Ki-value geometry the store benches chunk at.
	var blocks []int
	for rem := f.Len(); rem > 0; {
		n := 64 * 1024
		if rem < n {
			n = rem
		}
		blocks = append(blocks, n)
		rem -= n
	}
	b.SetBytes(f.OriginalBytes())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := residual.Encode(io.Discard, c, f.Prec, f.Data, recon.Data, blocks); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExactRead measures a random-access read at the lossless tier: an
// interior range decoded from only the covering chunks, their residual
// blocks applied, bit-exact values out.
func BenchmarkExactRead(b *testing.B) {
	st, eng, f, man := storeBenchSetup(b)
	m, err := st.PutWithResidual("bench", func(w io.Writer) (*store.Manifest, error) {
		sw, err := eng.NewFieldStreamWriter(w, f, rqm.WithChunkSize(64*1024))
		if err != nil {
			return nil, err
		}
		if err := sw.WriteValues(f.Data); err != nil {
			return nil, err
		}
		return man, sw.Close()
	}, store.BuildResidual(f.Data, f.Prec, residual.DefaultBackend))
	if err != nil {
		b.Fatal(err)
	}
	const n = 4096
	b.SetBytes(n * 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vals, err := st.ReadRangeExact(m, int64(f.Len()/2), n)
		if err != nil {
			b.Fatal(err)
		}
		if len(vals) != n {
			b.Fatalf("exact read returned %d values, want %d", len(vals), n)
		}
	}
}
