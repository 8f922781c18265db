package store_test

import (
	"errors"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rqm"
	"rqm/internal/partition"
	"rqm/internal/store"
)

// testField synthesizes a deterministic smooth field of n values.
func testField(t testing.TB, n int) *rqm.Field {
	t.Helper()
	vals := make([]float64, n)
	for i := range vals {
		x := float64(i)
		vals[i] = math.Sin(x/37) + 0.25*math.Cos(x/11) + 1e-4*x
	}
	f, err := rqm.FieldFromData("test", rqm.Float64, vals, n)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// readRange reads elements [off, off+n) of a dataset as the service's slice
// handler does: its manifest, then ReadRangeWith.
func readRange(s *store.Store, name string, off, n int64) ([]float64, error) {
	m, err := s.Manifest(name)
	if err != nil {
		return nil, err
	}
	return s.ReadRangeWith(m, off, n)
}

// putField admits f with a fixed ABS bound, chunkValues per chunk, and a
// cached profile — the same flow the service's put handler runs.
func putField(t testing.TB, s *store.Store, name string, f *rqm.Field, chunkValues int, absEB float64) *store.Manifest {
	t.Helper()
	eng, err := rqm.NewEngine(rqm.WithMode(rqm.ABS), rqm.WithErrorBound(absEB))
	if err != nil {
		t.Fatal(err)
	}
	p, err := eng.Profile(f)
	if err != nil {
		t.Fatal(err)
	}
	man := &store.Manifest{
		CreatedAt:     time.Now().UTC(),
		PrecBits:      f.Prec.Bits(),
		Dims:          append([]int(nil), f.Dims...),
		Codec:         eng.Codec().Name(),
		Predictor:     "lorenzo",
		Mode:          "abs",
		ErrorBound:    absEB,
		ContentHash:   strings.Repeat("ab", 32),
		OriginalBytes: f.OriginalBytes(),
		Profile:       store.NewProfileRecord(p),
	}
	committed, err := s.Put(name, func(w io.Writer) (*store.Manifest, error) {
		sw, err := eng.NewFieldStreamWriter(w, f, rqm.WithChunkSize(chunkValues))
		if err != nil {
			return nil, err
		}
		if err := sw.WriteValues(f.Data); err != nil {
			return nil, err
		}
		return man, sw.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	return committed
}

func TestValidateName(t *testing.T) {
	good := []string{"a", "nyx-temperature", "A.B_c-9", strings.Repeat("x", 128)}
	for _, n := range good {
		if err := store.ValidateName(n); err != nil {
			t.Errorf("ValidateName(%q) = %v, want nil", n, err)
		}
	}
	bad := []string{"", ".hidden", "a/b", "..", "a b", "ü", strings.Repeat("x", 129), "a\x00b"}
	for _, n := range bad {
		if err := store.ValidateName(n); !errors.Is(err, store.ErrBadName) {
			t.Errorf("ValidateName(%q) = %v, want ErrBadName", n, err)
		}
	}
}

func TestPutGetListDelete(t *testing.T) {
	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	f := testField(t, 4096)
	m := putField(t, s, "alpha", f, 512, 1e-4)
	if m.TotalValues != 4096 || len(m.Chunks) != 8 {
		t.Fatalf("manifest: %d values in %d chunks, want 4096 in 8", m.TotalValues, len(m.Chunks))
	}
	if m.Ratio <= 1 {
		t.Fatalf("ratio %v, want > 1", m.Ratio)
	}
	if s.Writes() != 1 {
		t.Fatalf("writes %d, want 1", s.Writes())
	}

	// Reload from disk through a fresh handle: everything must persist.
	s2, err := store.Open(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	got, err := s2.Manifest("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if got.ContentHash != m.ContentHash || got.TotalValues != m.TotalValues {
		t.Fatalf("reloaded manifest differs: %+v vs %+v", got, m)
	}
	if _, err := got.RQProfile(); err == nil {
		t.Fatal("a manifest head rebuilt a profile without its samples")
	}
	full, err := s2.FullManifest(got)
	if err != nil {
		t.Fatal(err)
	}
	p, err := full.RQProfile()
	if err != nil {
		t.Fatal(err)
	}
	if p.N != f.Len() {
		t.Fatalf("profile N %d, want %d", p.N, f.Len())
	}
	// The cached profile must answer like the live one.
	if est := p.EstimateAt(1e-4); !(est.Ratio > 1) {
		t.Fatalf("cached profile estimates ratio %v", est.Ratio)
	}

	// The stored container round-trips within the bound.
	blob, err := os.ReadFile(filepath.Join(s.Dir(), "datasets", "alpha", store.ContainerFile))
	if err != nil {
		t.Fatal(err)
	}
	back, err := rqm.Decompress(blob)
	if err != nil {
		t.Fatal(err)
	}
	if err := rqm.VerifyErrorBound(f, back, rqm.ABS, 1e-4*(1+1e-12)); err != nil {
		t.Fatal(err)
	}

	ms, err := s2.List()
	if err != nil || len(ms) != 1 || ms[0].Name != "alpha" {
		t.Fatalf("List = %v, %v", ms, err)
	}
	total, n := s2.Bytes()
	if n != 1 || total <= 0 {
		t.Fatalf("Bytes = %d, %d", total, n)
	}

	if err := s2.Delete("alpha"); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Manifest("alpha"); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("after delete: %v, want ErrNotFound", err)
	}
	if err := s2.Delete("alpha"); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("double delete: %v, want ErrNotFound", err)
	}
}

func TestPutReplaces(t *testing.T) {
	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	putField(t, s, "d", testField(t, 1024), 256, 1e-3)
	m2 := putField(t, s, "d", testField(t, 2048), 256, 1e-3)
	if m2.TotalValues != 2048 {
		t.Fatalf("replacement holds %d values, want 2048", m2.TotalValues)
	}
	got, err := s.Manifest("d")
	if err != nil || got.TotalValues != 2048 {
		t.Fatalf("Manifest after replace: %+v, %v", got, err)
	}
	if ms, _ := s.List(); len(ms) != 1 {
		t.Fatalf("List after replace has %d datasets", len(ms))
	}
}

// TestCrashSafetyHalfWrittenPut simulates a crash at every step of the put
// protocol and proves the half-written dataset is invisible after reopen —
// the acceptance contract of the temp-file + atomic-rename design.
func TestCrashSafetyHalfWrittenPut(t *testing.T) {
	root := t.TempDir()
	s, err := store.Open(root)
	if err != nil {
		t.Fatal(err)
	}
	f := testField(t, 1024)
	putField(t, s, "survivor", f, 256, 1e-3)

	// Crash step 1: a staged dataset left in tmp/ (container written,
	// manifest written, publish rename never happened).
	stage := filepath.Join(root, "tmp", "victim.12345")
	if err := os.MkdirAll(stage, 0o755); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(filepath.Join(root, "datasets", "survivor", store.ContainerFile))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(stage, store.ContainerFile), blob, 0o644); err != nil {
		t.Fatal(err)
	}
	manBytes, err := os.ReadFile(filepath.Join(root, "datasets", "survivor", store.ManifestFile))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(stage, store.ManifestFile), manBytes, 0o644); err != nil {
		t.Fatal(err)
	}

	// Crash step 2: a dataset directory with a container but no manifest
	// (the pre-atomic-protocol failure mode this design rules out; a reader
	// must treat it as absent).
	orphan := filepath.Join(root, "datasets", "orphan")
	if err := os.MkdirAll(orphan, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(orphan, store.ContainerFile), blob, 0o644); err != nil {
		t.Fatal(err)
	}

	// Crash step 3: a dataset directory with a truncated manifest.
	mangled := filepath.Join(root, "datasets", "mangled")
	if err := os.MkdirAll(mangled, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(mangled, store.ContainerFile), blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(mangled, store.ManifestFile), manBytes[:len(manBytes)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	// Reopen: only the fully committed dataset is visible, and the staging
	// debris is gone.
	s2, err := store.Open(root)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := s2.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 || ms[0].Name != "survivor" {
		names := make([]string, len(ms))
		for i, m := range ms {
			names[i] = m.Name
		}
		t.Fatalf("after reopen List = %v, want [survivor]", names)
	}
	if _, err := s2.Manifest("orphan"); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("orphan visible: %v", err)
	}
	if _, err := s2.Manifest("mangled"); !errors.Is(err, store.ErrManifestCorrupt) {
		t.Fatalf("mangled manifest error %v, want ErrManifestCorrupt", err)
	}
	if _, err := os.Stat(stage); !os.IsNotExist(err) {
		t.Fatalf("staging debris survived reopen: %v", err)
	}
	// The survivor still round-trips.
	vals, err := readRange(s2, "survivor", 0, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 1024 {
		t.Fatalf("readRange returned %d values", len(vals))
	}
}

// TestReadRangeDecompressesOnlyCoveredChunks pins the random-access
// contract: a slice read touches exactly the chunks overlapping the range
// and returns bytes identical to slicing a full decompress.
func TestReadRangeDecompressesOnlyCoveredChunks(t *testing.T) {
	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const total, chunk = 4096, 256 // 16 chunks
	f := testField(t, total)
	putField(t, s, "sliced", f, chunk, 1e-4)

	blob, err := os.ReadFile(filepath.Join(s.Dir(), "datasets", "sliced", store.ContainerFile))
	if err != nil {
		t.Fatal(err)
	}
	full, err := rqm.Decompress(blob)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		off, n     int64
		wantChunks int64
	}{
		{0, chunk, 1},               // exactly the first chunk
		{chunk / 2, chunk, 2},       // straddles one boundary
		{3*chunk + 7, 2 * chunk, 3}, // interior, misaligned
		{total - 5, 5, 1},           // tail
		{0, total, 16},              // everything
	}
	for _, tc := range cases {
		before := s.ChunkReads()
		vals, err := readRange(s, "sliced", tc.off, tc.n)
		if err != nil {
			t.Fatalf("readRange(%d, %d): %v", tc.off, tc.n, err)
		}
		if got := s.ChunkReads() - before; got != tc.wantChunks {
			t.Errorf("readRange(%d, %d) decompressed %d chunks, want %d", tc.off, tc.n, got, tc.wantChunks)
		}
		if int64(len(vals)) != tc.n {
			t.Fatalf("readRange(%d, %d) returned %d values", tc.off, tc.n, len(vals))
		}
		for i, v := range vals {
			if v != full.Data[tc.off+int64(i)] {
				t.Fatalf("readRange(%d, %d)[%d] = %v, full decompress has %v",
					tc.off, tc.n, i, v, full.Data[tc.off+int64(i)])
			}
		}
	}

	// Out-of-range requests are typed errors.
	for _, tc := range [][2]int64{{-1, 10}, {0, 0}, {0, total + 1}, {total, 1}} {
		if _, err := readRange(s, "sliced", tc[0], tc[1]); !errors.Is(err, store.ErrBadRange) {
			t.Errorf("readRange(%d, %d) = %v, want ErrBadRange", tc[0], tc[1], err)
		}
	}
}

// TestCrashRecoveryRestoresParkedReplacement pins the replacement window:
// a crash between "park the old dataset" and "publish the new one" must
// restore the committed original at reopen, and a crash after publish (park
// cleanup pending) must keep the new one.
func TestCrashRecoveryRestoresParkedReplacement(t *testing.T) {
	root := t.TempDir()
	s, err := store.Open(root)
	if err != nil {
		t.Fatal(err)
	}
	f := testField(t, 1024)
	m := putField(t, s, "repl", f, 256, 1e-3)

	// Crash between the two renames: the committed dataset sits parked at
	// .old.repl and datasets/repl does not exist.
	base := filepath.Join(root, "datasets")
	if err := os.Rename(filepath.Join(base, "repl"), filepath.Join(base, ".old.repl")); err != nil {
		t.Fatal(err)
	}
	s2, err := store.Open(root)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s2.Manifest("repl")
	if err != nil {
		t.Fatalf("parked dataset not restored: %v", err)
	}
	if got.ContentHash != m.ContentHash {
		t.Fatalf("restored manifest differs")
	}
	if _, err := os.Stat(filepath.Join(base, ".old.repl")); !os.IsNotExist(err) {
		t.Fatal("parked copy left behind after restore")
	}
	if _, n := s2.Bytes(); n != 1 {
		t.Fatalf("gauge counts %d datasets after restore, want 1", n)
	}

	// Crash after publish with the park cleanup pending: the new dataset
	// wins and the parked copy is cleared.
	m2 := putField(t, s2, "repl", testField(t, 2048), 256, 1e-3)
	parked := filepath.Join(base, ".old.repl")
	if err := os.MkdirAll(parked, 0o755); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(filepath.Join(base, "repl", store.ContainerFile))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(parked, store.ContainerFile), blob, 0o644); err != nil {
		t.Fatal(err)
	}
	s3, err := store.Open(root)
	if err != nil {
		t.Fatal(err)
	}
	got, err = s3.Manifest("repl")
	if err != nil || got.TotalValues != m2.TotalValues {
		t.Fatalf("published dataset lost: %+v, %v", got, err)
	}
	if _, err := os.Stat(parked); !os.IsNotExist(err) {
		t.Fatal("stale parked copy survived reopen")
	}
}

// TestBytesGaugeTracksPutReplaceDelete pins the O(1) size gauges against
// the filesystem truth — every file under datasets/ — across put, replace,
// and delete.
func TestBytesGaugeTracksPutReplaceDelete(t *testing.T) {
	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sum := func() int64 {
		var total int64
		err := filepath.WalkDir(filepath.Join(s.Dir(), "datasets"), func(_ string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() {
				var fi fs.FileInfo
				if fi, err = d.Info(); err == nil {
					total += fi.Size()
				}
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return total
	}
	putField(t, s, "a", testField(t, 1024), 256, 1e-3)
	putField(t, s, "b", testField(t, 2048), 256, 1e-3)
	if total, n := s.Bytes(); n != 2 || total != sum() {
		t.Fatalf("gauges (%d, %d) after puts, disk holds %d", total, n, sum())
	}
	putField(t, s, "a", testField(t, 4096), 256, 1e-3) // replace
	if total, n := s.Bytes(); n != 2 || total != sum() {
		t.Fatalf("gauges (%d, %d) after replace, disk holds %d", total, n, sum())
	}
	if err := s.Delete("b"); err != nil {
		t.Fatal(err)
	}
	if total, n := s.Bytes(); n != 1 || total != sum() {
		t.Fatalf("gauges (%d, %d) after delete, disk holds %d", total, n, sum())
	}
}

// TestReplaceConflicts pins the compare-and-swap: a Commit whose base
// version was re-put or deleted mid-flight aborts with ErrConflict and
// leaves the committed state untouched.
func TestReplaceConflicts(t *testing.T) {
	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	f := testField(t, 1024)
	base := putField(t, s, "cas", f, 256, 1e-3)

	// The dataset is re-put (new version) after the base was read.
	newer := putField(t, s, "cas", testField(t, 2048), 256, 1e-3)
	writes := s.Writes()
	_, err = s.Commit("cas", base, func(w io.Writer) (*store.Manifest, error) {
		t.Fatal("build ran despite a stale base")
		return nil, nil
	}, nil)
	if !errors.Is(err, store.ErrConflict) {
		t.Fatalf("stale Commit: %v, want ErrConflict", err)
	}
	if s.Writes() != writes {
		t.Fatal("stale Commit committed a write")
	}
	if got, _ := s.Manifest("cas"); got == nil || got.TotalValues != newer.TotalValues {
		t.Fatal("stale Commit disturbed the committed dataset")
	}

	// A matching base goes through.
	cur, err := s.Manifest("cas")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Commit("cas", cur, func(w io.Writer) (*store.Manifest, error) {
		return mustStage(t, w, testField(t, 2048), 256, 1e-3), nil
	}, nil); err != nil {
		t.Fatalf("fresh Commit: %v", err)
	}

	// A deleted dataset cannot be resurrected.
	if err := s.Delete("cas"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Commit("cas", cur, func(w io.Writer) (*store.Manifest, error) {
		t.Fatal("build ran despite deletion")
		return nil, nil
	}, nil); !errors.Is(err, store.ErrConflict) {
		t.Fatalf("Commit after delete: %v, want ErrConflict", err)
	}
}

// mustStage writes one compressed container into w and returns its
// manifest (the build-callback body shared by the Commit tests).
func mustStage(t testing.TB, w io.Writer, f *rqm.Field, chunkValues int, absEB float64) *store.Manifest {
	t.Helper()
	eng, err := rqm.NewEngine(rqm.WithMode(rqm.ABS), rqm.WithErrorBound(absEB))
	if err != nil {
		t.Fatal(err)
	}
	sw, err := eng.NewFieldStreamWriter(w, f, rqm.WithChunkSize(chunkValues))
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.WriteValues(f.Data); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	return &store.Manifest{
		CreatedAt:     time.Now().UTC(),
		PrecBits:      f.Prec.Bits(),
		Dims:          append([]int(nil), f.Dims...),
		Codec:         eng.Codec().Name(),
		Predictor:     "lorenzo",
		Mode:          "abs",
		ErrorBound:    absEB,
		ContentHash:   strings.Repeat("ab", 32),
		OriginalBytes: f.OriginalBytes(),
	}
}

func mustList(t testing.TB, s *store.Store) []*store.Manifest {
	t.Helper()
	ms, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	return ms
}

func TestManifestProfileRoundTrip(t *testing.T) {
	f := testField(t, 2048)
	p, err := rqm.NewProfile(f, rqm.Lorenzo, rqm.ModelOptions{SampleRate: 0.5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	rec := store.NewProfileRecord(p)
	m := &store.Manifest{Name: "x", Profile: rec}
	back, err := m.RQProfile()
	if err != nil {
		t.Fatal(err)
	}
	for _, eb := range []float64{1e-5, 1e-3, 1e-1} {
		a, b := p.EstimateAt(eb), back.EstimateAt(eb)
		if a.Ratio != b.Ratio || a.PSNR != b.PSNR || a.TotalBitRate != b.TotalBitRate {
			t.Fatalf("eb %g: cached profile answers (%v, %v) differ from live (%v, %v)",
				eb, b.Ratio, b.PSNR, a.Ratio, a.PSNR)
		}
	}
}

// TestReadRangeOverVariableChunks re-pins the random-access contract when the
// chunk grid is non-uniform: a spatially partitioned container's regions hold
// differing value counts, and slice reads must still touch exactly the
// covering chunks and return values identical to a full decompress.
func TestReadRangeOverVariableChunks(t *testing.T) {
	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	f, err := rqm.GenerateField("mixed", 42, rqm.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := rqm.NewEngine(rqm.WithMode(rqm.ABS), rqm.WithErrorBound(1e-3))
	if err != nil {
		t.Fatal(err)
	}
	p, err := eng.Profile(f)
	if err != nil {
		t.Fatal(err)
	}
	man := &store.Manifest{
		CreatedAt:     time.Now().UTC(),
		PrecBits:      f.Prec.Bits(),
		Dims:          append([]int(nil), f.Dims...),
		Codec:         eng.Codec().Name(),
		Predictor:     "lorenzo",
		Mode:          "abs",
		ContentHash:   strings.Repeat("cd", 32),
		OriginalBytes: f.OriginalBytes(),
		Partitioner:   partition.VarianceQuadtreeName,
		Profile:       store.NewProfileRecord(p),
	}
	m, err := s.Put("quad", func(w io.Writer) (*store.Manifest, error) {
		sw, err := eng.NewFieldStreamWriter(w, f,
			rqm.WithAdaptiveBound(rqm.AdaptiveBound{TargetPSNR: 60}),
			rqm.WithPartitioner(rqm.VarianceQuadtree{SplitFactor: 1.1, MinRegionValues: 1024}))
		if err != nil {
			return nil, err
		}
		if err := sw.WriteValues(f.Data); err != nil {
			return nil, err
		}
		if err := sw.Close(); err != nil {
			return nil, err
		}
		man.ErrorBound = sw.Stats().MaxBound
		return man, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Partitioner != partition.VarianceQuadtreeName {
		t.Fatalf("committed manifest partitioner %q", m.Partitioner)
	}
	sizes := map[int]bool{}
	starts := make([]int64, len(m.Chunks)+1)
	for i, c := range m.Chunks {
		sizes[c.Values] = true
		starts[i+1] = starts[i] + int64(c.Values)
	}
	if len(m.Chunks) < 2 || len(sizes) < 2 {
		t.Fatalf("container has %d chunks with sizes %v, want non-uniform geometry", len(m.Chunks), sizes)
	}
	total := starts[len(m.Chunks)]
	if total != int64(f.Len()) {
		t.Fatalf("chunks cover %d values, field holds %d", total, f.Len())
	}

	blob, err := os.ReadFile(filepath.Join(s.Dir(), "datasets", "quad", store.ContainerFile))
	if err != nil {
		t.Fatal(err)
	}
	full, err := rqm.Decompress(blob)
	if err != nil {
		t.Fatal(err)
	}

	// coveringChunks counts, against the real variable grid, how many chunks a
	// range overlaps — the expected decompression work.
	coveringChunks := func(off, n int64) int64 {
		var c int64
		for i := range m.Chunks {
			if starts[i] < off+n && starts[i+1] > off {
				c++
			}
		}
		return c
	}
	cases := [][2]int64{
		{0, int64(m.Chunks[0].Values)}, // exactly the first (odd-sized) chunk
		{starts[1] - 100, 200},         // straddles the first region boundary
		{starts[len(m.Chunks)-1] - 1, 2},
		{total - 7, 7},
		{0, total},
	}
	for _, tc := range cases {
		off, n := tc[0], tc[1]
		before := s.ChunkReads()
		vals, err := readRange(s, "quad", off, n)
		if err != nil {
			t.Fatalf("readRange(%d, %d): %v", off, n, err)
		}
		if got, want := s.ChunkReads()-before, coveringChunks(off, n); got != want {
			t.Errorf("readRange(%d, %d) decompressed %d chunks, want %d", off, n, got, want)
		}
		if int64(len(vals)) != n {
			t.Fatalf("readRange(%d, %d) returned %d values", off, n, len(vals))
		}
		for i, v := range vals {
			if math.Float64bits(v) != math.Float64bits(full.Data[off+int64(i)]) {
				t.Fatalf("readRange(%d, %d)[%d] = %v, full decompress has %v", off, n, i, v, full.Data[off+int64(i)])
			}
		}
	}
}
