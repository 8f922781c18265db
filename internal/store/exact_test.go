package store_test

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"testing"

	"rqm"
	"rqm/internal/grid"
	"rqm/internal/poison"
	"rqm/internal/residual"
	"rqm/internal/store"
)

// f32Field is a smooth float32 field of n values, the storage width most
// exact datasets have.
func f32Field(t testing.TB, n int) *rqm.Field {
	t.Helper()
	vals := make([]float64, n)
	for i := range vals {
		x := float64(i)
		vals[i] = float64(float32(math.Sin(x/37) + 0.25*math.Cos(x/11) + 1e-4*x))
	}
	f, err := rqm.FieldFromData("f32", rqm.Float32, vals, n)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestBuildResidualIsEncode: the residual BuildResidual codes chunk by chunk
// as the container decodes is, byte for byte, the file Encode writes from
// the whole reconstruction, on every backend and both widths, with a short
// last chunk.
func TestBuildResidualIsEncode(t *testing.T) {
	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []*rqm.Field{testField(t, 5*1024+300), f32Field(t, 5*1024+300)} {
		for _, backend := range []string{"ans", "huffman", "lz77"} {
			name := fmt.Sprintf("%s-f%d", backend, f.Prec.Bits())
			m := putPromoted(t, s, name, f, 1024, 1e-3, backend)
			recon, err := s.ReadRangeWith(m, 0, m.TotalValues)
			if err != nil {
				t.Fatal(err)
			}
			var blocks []int
			for _, c := range m.Chunks {
				blocks = append(blocks, c.Values)
			}
			c, err := residual.ByName(backend)
			if err != nil {
				t.Fatal(err)
			}
			var want bytes.Buffer
			if _, err := residual.Encode(&want, c, f.Prec, f.Data, recon, blocks); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(residualPath(s, name))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("%s: BuildResidual wrote %d bytes that differ from Encode's %d", name, len(got), want.Len())
			}
		}
	}
}

// TestRebuildResidualIsBuildResidual: an exact recompaction rebuilds the
// residual from the original ReadValues proved against the manifest's
// original hash, and stamps that digest instead of hashing the values
// again. The file is, byte for byte, the one BuildResidual writes from the
// same values, and the one the put committed, at both widths.
func TestRebuildResidualIsBuildResidual(t *testing.T) {
	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []*rqm.Field{testField(t, 5*1024+300), f32Field(t, 5*1024+300)} {
		name := fmt.Sprintf("f%d", f.Prec.Bits())
		m := putPromoted(t, s, name, f, 1024, 1e-3, residual.DefaultBackend)
		vals, err := s.ReadValues(m, true, nil)
		if err != nil {
			t.Fatal(err)
		}
		cpath, err := s.ContainerPath(name)
		if err != nil {
			t.Fatal(err)
		}
		var built, rebuilt bytes.Buffer
		if _, err := store.BuildResidual(vals, m.Prec(), m.Residual.Backend)(cpath, &built); err != nil {
			t.Fatal(err)
		}
		if _, err := store.RebuildResidual(vals, m)(cpath, &rebuilt); err != nil {
			t.Fatal(err)
		}
		committed, err := os.ReadFile(residualPath(s, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rebuilt.Bytes(), built.Bytes()) || !bytes.Equal(rebuilt.Bytes(), committed) {
			t.Fatalf("%s: RebuildResidual wrote %d bytes that differ from BuildResidual's %d or the committed %d",
				name, rebuilt.Len(), built.Len(), len(committed))
		}
	}
}

// exactFixture is a promoted f32 dataset of 4 chunks of 65,536 values: what
// the exact-tier benchmarks and allocation guard read and rebuild.
func exactFixture(t testing.TB) (*store.Store, *store.Manifest, *rqm.Field, string) {
	t.Helper()
	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const chunk = 1 << 16
	f := f32Field(t, 4*chunk)
	m := putPromoted(t, s, "exact", f, chunk, 1e-3, residual.DefaultBackend)
	cpath, err := s.ContainerPath("exact")
	if err != nil {
		t.Fatal(err)
	}
	return s, m, f, cpath
}

// TestExactPathsAllocateLittle: a warm exact read proves into a pooled
// buffer and a warm BuildResidual codes each block as its chunk decodes, so
// neither allocates per value. Before, each held a float64 per value of the
// whole dataset (8 B/value, 16 for the read).
func TestExactPathsAllocateLittle(t *testing.T) {
	if poison.Enabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	s, m, f, cpath := exactFixture(t)
	// The fixture's residual holds ULP blocks, the layout exact reads decode
	// most: its reader must stay as allocation-free as the XOR one.
	rfile, err := os.ReadFile(residualPath(s, m.Name))
	if err != nil {
		t.Fatal(err)
	}
	idx, err := residual.LoadIndex(bytes.NewReader(rfile))
	if err != nil {
		t.Fatal(err)
	}
	ulp := 0
	for _, e := range idx.Blocks {
		if e.Flags&residual.FlagULP != 0 {
			ulp++
		}
	}
	t.Logf("%d of %d residual blocks are ULP blocks", ulp, len(idx.Blocks))
	if ulp == 0 {
		t.Fatal("the fixture's residual holds no ULP block")
	}
	build := store.BuildResidual(f.Data, f.Prec, residual.DefaultBackend)
	// Measure on one P, as testing.AllocsPerRun does: a sync.Pool keeps an
	// item Put on one P in that P's private slot, which no other P can take,
	// so a run that lands on another P than the last draws fresh buffers.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{"exact read", func() error { return s.WithSamples(m, true, func(string, []byte) error { return nil }) }},
		{"BuildResidual", func() error { _, err := build(cpath, io.Discard); return err }},
	} {
		// Under a quarter byte per value: the opened files, indexes and hash
		// state, never a buffer as long as the dataset.
		const budget = 0.25
		if err := tc.run(); err != nil { // warm the pools
			t.Fatalf("%s: %v", tc.name, err)
		}
		least := uint64(math.MaxUint64)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := tc.run()
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		perValue := float64(least) / float64(m.TotalValues)
		t.Logf("%s: %d bytes, %.3f B/value", tc.name, least, perValue)
		if perValue > budget {
			t.Errorf("%s allocates %.2f B/value, budget %.2f", tc.name, perValue, budget)
		}
	}
}

// TestWithExactServesTheOriginal: the proven bytes are the original's sample
// section at storage width, and ReadValues's exact values decode from them.
func TestWithExactServesTheOriginal(t *testing.T) {
	s, m, f, _ := exactFixture(t)
	want := grid.EncodeSamples(nil, f.Prec, f.Data)
	if err := s.WithSamples(m, true, func(_ string, samples []byte) error {
		if !bytes.Equal(samples, want) {
			t.Fatal("the proven samples are not the original's")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	vals, err := s.ReadValues(m, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := grid.EncodeSamples(nil, f.Prec, vals); !bytes.Equal(got, want) {
		t.Fatal("ReadValues's exact values are not the original's")
	}
}

// BenchmarkReadExact times the whole-dataset exact read: every chunk decoded,
// its residual block applied, the values written at storage width and
// hashed, into a pooled buffer.
func BenchmarkReadExact(b *testing.B) {
	s, m, f, _ := exactFixture(b)
	b.SetBytes(int64(len(f.Data) * 4))
	b.ReportAllocs()
	for b.Loop() {
		if err := s.WithSamples(m, true, func(string, []byte) error { return nil }); err != nil {
			b.Fatal(err)
		}
	}
}

// TestReadRangeExactAcrossChunks: exact slices that start, end or cross at
// chunk boundaries — one value on either side of a boundary, a whole chunk,
// a range over three chunks, the short last chunk — restore the original
// bits, at both widths and on every backend. Each chunk restores only its
// part of the range, so a part that started or ended in the wrong place
// would show here.
func TestReadRangeExactAcrossChunks(t *testing.T) {
	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const chunk = 1024
	for _, f := range []*rqm.Field{testField(t, 5*chunk+300), f32Field(t, 5*chunk+300)} {
		for _, backend := range []string{"ans", "huffman", "lz77"} {
			name := fmt.Sprintf("%s-f%d", backend, f.Prec.Bits())
			m := putPromoted(t, s, name, f, chunk, 1e-3, backend)
			total := m.TotalValues
			for _, r := range [][2]int64{
				{0, 1}, {chunk - 1, 1}, {chunk, 1}, {chunk - 1, 2}, {chunk - 24, 48},
				{chunk, chunk}, {chunk + 1, chunk - 1}, {chunk - 24, 2*chunk + 48},
				{5*chunk - 1, 2}, {5 * chunk, 300}, {total - 1, 1}, {0, total},
			} {
				got, err := s.ReadRangeExact(m, r[0], r[1])
				if err != nil {
					t.Fatalf("%s [%d, %d): %v", name, r[0], r[0]+r[1], err)
				}
				want := grid.EncodeSamples(nil, f.Prec, f.Data[r[0]:r[0]+r[1]])
				if !bytes.Equal(grid.EncodeSamples(nil, f.Prec, got), want) {
					t.Fatalf("%s [%d, %d): the exact slice is not the original's", name, r[0], r[0]+r[1])
				}
			}
		}
	}
}

// BenchmarkReadRangeExact times 4096-value exact slices of exactFixture: at
// a chunk's start, inside one, across a chunk boundary, inside a chunk
// whose residual is a ULP block and at the last chunk's end. Each decodes
// its chunks whole and restores its own values.
func BenchmarkReadRangeExact(b *testing.B) {
	s, m, _, _ := exactFixture(b)
	const n, chunk = 4096, 1 << 16
	for _, off := range []int64{0, 30000, chunk - n/2, 2*chunk + 30000, 4*chunk - n} {
		b.Run(fmt.Sprintf("off=%d", off), func(b *testing.B) {
			b.SetBytes(n * 4)
			b.ReportAllocs()
			for b.Loop() {
				if _, err := s.ReadRangeExact(m, off, n); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBuildResidual times the residual writer of an exact put: the
// container decoded chunk by chunk and each chunk's residual block coded.
func BenchmarkBuildResidual(b *testing.B) {
	_, _, f, cpath := exactFixture(b)
	build := store.BuildResidual(f.Data, f.Prec, residual.DefaultBackend)
	b.SetBytes(int64(len(f.Data) * 4))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := build(cpath, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
