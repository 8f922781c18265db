package rqm_test

import (
	"io"
	"testing"
	"time"

	"rqm"
	"rqm/internal/store"
)

// storeBenchSetup builds an on-disk store, a field, and its profile.
func storeBenchSetup(b *testing.B) (*store.Store, *rqm.Engine, *rqm.Field, *store.Manifest) {
	b.Helper()
	st, err := store.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	g, err := rqm.GenerateField("nyx/temperature", 3, rqm.ScaleSmall)
	if err != nil {
		b.Fatal(err)
	}
	f, err := rqm.FieldFromData("bench", rqm.Float64, g.Data, g.Dims...)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := rqm.NewEngine(rqm.WithMode(rqm.REL), rqm.WithErrorBound(1e-3))
	if err != nil {
		b.Fatal(err)
	}
	p, err := eng.Profile(f)
	if err != nil {
		b.Fatal(err)
	}
	man := &store.Manifest{
		CreatedAt:     time.Now().UTC(),
		PrecBits:      f.Prec.Bits(),
		Dims:          append([]int(nil), f.Dims...),
		Codec:         eng.Codec().Name(),
		Predictor:     "lorenzo",
		Mode:          "rel",
		ErrorBound:    1e-3,
		ContentHash:   "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef",
		OriginalBytes: f.OriginalBytes(),
		Profile:       store.NewProfileRecord(p),
	}
	return st, eng, f, man
}

// BenchmarkStoreRoundTrip measures one archive round trip: a crash-safe put
// (stream-compress + trailer-index copy + manifest commit) followed by a
// random-access read of one interior chunk range — the store's two hot
// paths.
func BenchmarkStoreRoundTrip(b *testing.B) {
	st, eng, f, man := storeBenchSetup(b)
	b.SetBytes(f.OriginalBytes())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := *man // Put completes the manifest in place; keep the template
		if _, err := st.Put("bench", func(w io.Writer) (*store.Manifest, error) {
			sw, err := eng.NewFieldStreamWriter(w, f, rqm.WithChunkSize(64*1024))
			if err != nil {
				return nil, err
			}
			if err := sw.WriteValues(f.Data); err != nil {
				return nil, err
			}
			return &m, sw.Close()
		}); err != nil {
			b.Fatal(err)
		}
		if _, err := st.ReadRange("bench", int64(f.Len()/2), 4096); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreScrub measures one full shallow scrub of the archive — the
// cost of a background integrity pass: manifest parse, trailer-vs-manifest
// index reconciliation, and a CRC walk over every chunk. This is the
// recurring price of the integrity layer (`go run ./bench` records it as
// store.scrub_mb_s).
func BenchmarkStoreScrub(b *testing.B) {
	st, eng, f, man := storeBenchSetup(b)
	if _, err := st.Put("bench", func(w io.Writer) (*store.Manifest, error) {
		sw, err := eng.NewFieldStreamWriter(w, f, rqm.WithChunkSize(64*1024))
		if err != nil {
			return nil, err
		}
		if err := sw.WriteValues(f.Data); err != nil {
			return nil, err
		}
		return man, sw.Close()
	}); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(f.OriginalBytes())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := st.Scrub(store.ScrubOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Issues) != 0 {
			b.Fatalf("scrub found issues on a clean archive: %+v", rep.Issues)
		}
	}
}
