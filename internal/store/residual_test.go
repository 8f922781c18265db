package store_test

import (
	"bytes"
	"encoding/hex"
	"errors"
	"io"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"rqm"
	"rqm/internal/faultfs"
	"rqm/internal/grid"
	"rqm/internal/residual"
	"rqm/internal/store"
)

// putPromoted admits f with a residual layer built against the staged
// container — the store-level equivalent of `put -exact`.
func putPromoted(t testing.TB, s *store.Store, name string, f *rqm.Field, chunkValues int, absEB float64, backend string) *store.Manifest {
	t.Helper()
	committed, err := putWith(s, name, f, chunkValues, absEB, store.BuildResidual(f.Data, f.Prec, backend))
	if err != nil {
		t.Fatal(err)
	}
	return committed
}

// putWith commits f under name with rb as its residual builder, returning
// Commit's error.
func putWith(s *store.Store, name string, f *rqm.Field, chunkValues int, absEB float64, rb store.ResidualBuilder) (*store.Manifest, error) {
	eng, err := rqm.NewEngine(rqm.WithMode(rqm.ABS), rqm.WithErrorBound(absEB))
	if err != nil {
		return nil, err
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
	}
	return s.PutWithResidual(name, func(w io.Writer) (*store.Manifest, error) {
		sw, err := eng.NewFieldStreamWriter(w, f, rqm.WithChunkSize(chunkValues))
		if err != nil {
			return nil, err
		}
		if err := sw.WriteValues(f.Data); err != nil {
			return nil, err
		}
		return man, sw.Close()
	}, rb)
}

// storageExact returns v at the dataset's storage precision — the value an
// exact read must reproduce bit for bit.
func storageExact(v float64, prec grid.Precision) float64 {
	if prec.Bits() == 32 {
		return float64(float32(v))
	}
	return v
}

func TestPutWithResidualExactRead(t *testing.T) {
	for _, backend := range []string{"ans", "huffman", "lz77"} {
		s, err := store.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		f := testField(t, 4096)
		m := putPromoted(t, s, "exact", f, 512, 1e-3, backend)
		if m.Residual == nil {
			t.Fatalf("%s: committed manifest carries no residual record", backend)
		}
		if m.Residual.Backend != backend || m.Residual.Bytes <= 0 {
			t.Fatalf("%s: residual record %+v", backend, m.Residual)
		}
		// Lossy read differs from the original (it is lossy)…
		lossy, err := s.ReadRangeWith(m, 0, m.TotalValues)
		if err != nil {
			t.Fatal(err)
		}
		exactDiffers := false
		for i := range lossy {
			if lossy[i] != f.Data[i] {
				exactDiffers = true
				break
			}
		}
		if !exactDiffers {
			t.Fatalf("%s: lossy read is already exact — test field too easy", backend)
		}
		// …while the exact read is bit-identical to the original.
		got, err := s.ReadRangeExact(m, 0, m.TotalValues)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i] != storageExact(f.Data[i], f.Prec) {
				t.Fatalf("%s: exact read value %d: got %v, want %v", backend, i, got[i], f.Data[i])
			}
		}
		gh, err := residual.OriginalHash(got, f.Prec)
		if err != nil {
			t.Fatal(err)
		}
		wh, err := residual.OriginalHash(f.Data, f.Prec)
		if err != nil {
			t.Fatal(err)
		}
		if gh != wh {
			t.Fatalf("%s: exact payload hash differs from original", backend)
		}
		// BuildResidual declares no digest of its own: the manifest's is the
		// one Encode stamped into the file header, the original's.
		if want := hex.EncodeToString(wh[:]); m.Residual.OriginalHash != want {
			t.Fatalf("%s: manifest original_hash %s, original hashes to %s", backend, m.Residual.OriginalHash, want)
		}
		// The residual survives reopen, the gauge tracks it, and verify
		// passes at both depths.
		s2, err := store.Open(s.Dir())
		if err != nil {
			t.Fatal(err)
		}
		if s2.ResidualBytes() != m.Residual.Bytes {
			t.Fatalf("%s: gauge %d after reopen, want %d", backend, s2.ResidualBytes(), m.Residual.Bytes)
		}
		if err := s2.VerifyDataset("exact", true); err != nil {
			t.Fatalf("%s: deep verify of promoted dataset: %v", backend, err)
		}
	}
}

// TestExactSliceGeometry pins exact slice reads across both chunk layouts:
// fixed slabs and variance-quadtree variable-size chunks. Every sampled
// [off, len) must equal the original slice at storage precision.
func TestExactSliceGeometry(t *testing.T) {
	f, err := rqm.GenerateField("mixed", 42, rqm.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	layouts := map[string][]rqm.StreamOption{
		"fixed-slab": {rqm.WithChunkSize(2048)},
		"variance-quadtree": {
			rqm.WithAdaptiveBound(rqm.AdaptiveBound{TargetPSNR: 60}),
			rqm.WithPartitioner(rqm.VarianceQuadtree{SplitFactor: 1.1, MinRegionValues: 1024}),
		},
	}
	for name, opts := range layouts {
		s, err := store.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		eng, err := rqm.NewEngine(rqm.WithMode(rqm.ABS), rqm.WithErrorBound(1e-3))
		if err != nil {
			t.Fatal(err)
		}
		man := &store.Manifest{
			CreatedAt:     time.Now().UTC(),
			PrecBits:      f.Prec.Bits(),
			Dims:          append([]int(nil), f.Dims...),
			Codec:         eng.Codec().Name(),
			Mode:          "abs",
			ErrorBound:    1e-3,
			OriginalBytes: f.OriginalBytes(),
		}
		m, err := s.PutWithResidual("geo", func(w io.Writer) (*store.Manifest, error) {
			sw, err := eng.NewFieldStreamWriter(w, f, opts...)
			if err != nil {
				return nil, err
			}
			if err := sw.WriteValues(f.Data); err != nil {
				return nil, err
			}
			return man, sw.Close()
		}, store.BuildResidual(f.Data, f.Prec, residual.DefaultBackend))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if name == "variance-quadtree" {
			sizes := map[int]bool{}
			for _, c := range m.Chunks {
				sizes[c.Values] = true
			}
			if len(sizes) < 2 {
				t.Fatalf("quadtree produced uniform chunks %v — geometry not variable", sizes)
			}
		}
		total := m.TotalValues
		slices := [][2]int64{
			{0, total}, {0, 1}, {total - 1, 1}, {total / 3, total / 2},
			{1, 2*total/3 - 1}, {total/2 - 7, 15},
		}
		for _, sl := range slices {
			got, err := s.ReadRangeExact(m, sl[0], sl[1])
			if err != nil {
				t.Fatalf("%s: slice [%d,%d): %v", name, sl[0], sl[0]+sl[1], err)
			}
			for i := range got {
				want := storageExact(f.Data[sl[0]+int64(i)], f.Prec)
				if got[i] != want {
					t.Fatalf("%s: slice [%d,%d) value %d: got %v, want %v",
						name, sl[0], sl[0]+sl[1], i, got[i], want)
				}
			}
		}
	}
}

func TestExactReadWithoutResidual(t *testing.T) {
	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := putField(t, s, "lossy", testField(t, 1024), 256, 1e-3)
	if _, err := s.ReadRangeExact(m, 0, 256); !errors.Is(err, store.ErrNoResidual) {
		t.Fatalf("exact read of lossy dataset: %v, want ErrNoResidual", err)
	}
	if _, err := s.ResidualPath("lossy"); !errors.Is(err, store.ErrNoResidual) {
		t.Fatalf("ResidualPath: %v, want ErrNoResidual", err)
	}
}

// TestReplaceDropsResidual pins the demote-side store contract: a Commit
// against a base without a residual builder commits a manifest without a
// residual record and removes the file from the published directory.
func TestReplaceDropsResidual(t *testing.T) {
	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	f := testField(t, 2048)
	m := putPromoted(t, s, "drop", f, 512, 1e-3, "ans")
	if s.ResidualBytes() == 0 {
		t.Fatal("gauge did not pick up the residual")
	}
	eng, err := rqm.NewEngine(rqm.WithMode(rqm.ABS), rqm.WithErrorBound(1e-3))
	if err != nil {
		t.Fatal(err)
	}
	nm := *m
	nm.Generation++
	nm.Chunks = nil
	got, err := s.Commit("drop", m, func(w io.Writer) (*store.Manifest, error) {
		sw, err := eng.NewFieldStreamWriter(w, f, rqm.WithChunkSize(512))
		if err != nil {
			return nil, err
		}
		if err := sw.WriteValues(f.Data); err != nil {
			return nil, err
		}
		return &nm, sw.Close()
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Residual != nil {
		t.Fatal("Commit without a builder kept the residual record")
	}
	if s.ResidualBytes() != 0 {
		t.Fatalf("gauge %d after residual drop, want 0", s.ResidualBytes())
	}
	if _, err := s.ReadRangeExact(got, 0, 64); !errors.Is(err, store.ErrNoResidual) {
		t.Fatalf("exact read after drop: %v, want ErrNoResidual", err)
	}
	if vals, err := s.ReadRangeWith(got, 0, got.TotalValues); err != nil || len(vals) != int(got.TotalValues) {
		t.Fatalf("lossy read after drop: %d values, %v", len(vals), err)
	}
}

// TestResidualCompressionWin gates the acceptance criterion: on a smooth
// generated field the residual file lands under 60% of the raw original.
func TestResidualCompressionWin(t *testing.T) {
	f, err := rqm.GenerateField("miranda", 7, rqm.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := putPromoted(t, s, "win", f, 4096, 1e-6, residual.DefaultBackend)
	raw := f.OriginalBytes()
	if m.Residual.Bytes >= raw*60/100 {
		t.Fatalf("residual %d bytes, want < 60%% of raw %d", m.Residual.Bytes, raw)
	}
	t.Logf("residual %d bytes = %.1f%% of raw %d", m.Residual.Bytes,
		100*float64(m.Residual.Bytes)/float64(raw), raw)
}

// TestCorruptionMatrixResidual extends the corruption matrix to the
// residual file: a byte flip at every 101-byte stride must surface as typed
// ErrCorruptDataset — deep verify catches every flip via the commit-time
// residual hash — and exact reads must never serve wrong bytes untyped.
func TestCorruptionMatrixResidual(t *testing.T) {
	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	f := testField(t, 2048)
	m := putPromoted(t, s, "rmatrix", f, 256, 1e-4, "ans")
	path, err := s.ResidualPath("rmatrix")
	if err != nil {
		t.Fatal(err)
	}
	size := m.Residual.Bytes
	if size < 404 {
		t.Fatalf("residual only %d bytes — matrix needs several strides", size)
	}
	want := make([]float64, len(f.Data))
	for i, v := range f.Data {
		want[i] = storageExact(v, f.Prec)
	}

	for off := int64(0); off < size; off += 101 {
		if err := faultfs.CorruptFile(path, off); err != nil {
			t.Fatal(err)
		}
		// Lossy reads must be untouched by residual damage.
		if _, rerr := s.ReadRangeWith(m, 0, m.TotalValues); rerr != nil {
			t.Fatalf("offset %d: lossy read broke on a residual flip: %v", off, rerr)
		}
		// Exact reads either fail typed or still produce exact bytes (a flip
		// can land in slack an aligned read never touches — but never in
		// served data, which CRCs cover).
		got, rerr := s.ReadRangeExact(m, 0, m.TotalValues)
		if rerr != nil && !typedCorruption(rerr) {
			t.Fatalf("offset %d: untyped exact read error: %v", off, rerr)
		}
		if rerr == nil {
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("offset %d: exact read served wrong bytes", off)
				}
			}
		}
		if verr := s.VerifyDataset("rmatrix", false); verr != nil && !typedCorruption(verr) {
			t.Fatalf("offset %d: untyped shallow verify error: %v", off, verr)
		}
		derr := s.VerifyDataset("rmatrix", true)
		if derr == nil {
			t.Fatalf("offset %d: deep verify missed a residual flip", off)
		}
		if !typedCorruption(derr) {
			t.Fatalf("offset %d: untyped deep verify error: %v", off, derr)
		}
		if err := faultfs.CorruptFile(path, off); err != nil {
			t.Fatal(err)
		}
		if verr := s.VerifyDataset("rmatrix", true); verr != nil {
			t.Fatalf("offset %d: dataset not restored after un-flip: %v", off, verr)
		}
	}
}

// TestScrubQuarantinesCorruptResidual pins that a residual flip found by a
// deep scrub moves the WHOLE dataset directory — container, manifest, and
// residual — to quarantine, after which the name answers ErrNotFound.
func TestScrubQuarantinesCorruptResidual(t *testing.T) {
	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := putPromoted(t, s, "quarry", testField(t, 2048), 256, 1e-4, "ans")
	path, err := s.ResidualPath("quarry")
	if err != nil {
		t.Fatal(err)
	}
	if err := faultfs.CorruptFile(path, m.Residual.Bytes/2); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Scrub(store.ScrubOptions{Deep: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.DatasetsQuarantined != 1 || len(rep.Issues) != 1 || !rep.Issues[0].Quarantined {
		t.Fatalf("scrub report: %+v", rep)
	}
	if !strings.Contains(rep.Issues[0].Reason, "residual") {
		t.Fatalf("issue reason does not name the residual: %q", rep.Issues[0].Reason)
	}
	if _, err := s.Manifest("quarry"); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("quarantined dataset still answers: %v", err)
	}
	if s.ResidualBytes() != 0 {
		t.Fatalf("gauge %d after quarantine, want 0", s.ResidualBytes())
	}
}

// TestCopyResidualTransfer pins the replica-transfer path: a byte-identical
// copy commits, a damaged copy or one followed by a stray byte is refused
// typed at staging.
func TestCopyResidualTransfer(t *testing.T) {
	src, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	f := testField(t, 2048)
	m := putPromoted(t, src, "xfer", f, 256, 1e-4, "ans")
	rpath, err := src.ResidualPath("xfer")
	if err != nil {
		t.Fatal(err)
	}
	rbytes, err := os.ReadFile(rpath)
	if err != nil {
		t.Fatal(err)
	}
	cpath, err := src.ContainerPath("xfer")
	if err != nil {
		t.Fatal(err)
	}
	cbytes, err := os.ReadFile(cpath)
	if err != nil {
		t.Fatal(err)
	}

	copyBuild := func(w io.Writer) (*store.Manifest, error) {
		nm := *m
		_, err := w.Write(cbytes)
		return &nm, err
	}
	dst, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	got, err := dst.PutWithResidual("xfer", copyBuild,
		store.CopyResidual(bytes.NewReader(rbytes), m.Residual))
	if err != nil {
		t.Fatal(err)
	}
	if got.Residual == nil || got.Residual.Hash != m.Residual.Hash {
		t.Fatalf("transferred residual record %+v, want hash %s", got.Residual, m.Residual.Hash)
	}
	if err := dst.VerifyDataset("xfer", true); err != nil {
		t.Fatalf("deep verify of transferred dataset: %v", err)
	}

	// A flipped byte in transit must refuse the commit, typed.
	bad := append([]byte(nil), rbytes...)
	bad[len(bad)/2] ^= 0x10
	dst2, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dst2.PutWithResidual("xfer", copyBuild,
		store.CopyResidual(bytes.NewReader(bad), m.Residual)); !errors.Is(err, store.ErrCorruptDataset) {
		t.Fatalf("damaged transfer: %v, want ErrCorruptDataset", err)
	}
	if _, err := dst2.Manifest("xfer"); !errors.Is(err, store.ErrNotFound) {
		t.Fatal("damaged transfer left a committed dataset behind")
	}

	// So must a byte after the declared residual.
	if _, err := dst2.PutWithResidual("xfer", copyBuild,
		store.CopyResidual(bytes.NewReader(append(rbytes, 0)), m.Residual)); !errors.Is(err, store.ErrCorruptDataset) {
		t.Fatalf("transfer with a trailing byte: %v, want ErrCorruptDataset", err)
	}
	if _, err := dst2.Manifest("xfer"); !errors.Is(err, store.ErrNotFound) {
		t.Fatal("transfer with a trailing byte left a committed dataset behind")
	}
}

// TestResidualFloat32 pins the 32-bit storage path end to end: residuals
// computed and applied at float32 width reproduce the float32 payload.
func TestResidualFloat32(t *testing.T) {
	vals := make([]float64, 2048)
	for i := range vals {
		x := float64(i)
		vals[i] = math.Sin(x/29) + 0.5*math.Cos(x/13)
	}
	f, err := rqm.FieldFromData("f32", rqm.Float32, vals, 2048)
	if err != nil {
		t.Fatal(err)
	}
	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := putPromoted(t, s, "f32", f, 256, 1e-3, "ans")
	got, err := s.ReadRangeExact(m, 0, m.TotalValues)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != float64(float32(vals[i])) {
			t.Fatalf("value %d: got %v, want %v", i, got[i], float64(float32(vals[i])))
		}
	}
}

// wrongReconResidual is BuildResidual with one flaw: it encodes the residual
// against a reconstruction one bit off in value 0, so the file is well
// formed, its CRCs and header agree with the record, and only applying it
// shows it does not rebuild the original.
func wrongReconResidual(orig []float64, prec grid.Precision) store.ResidualBuilder {
	return func(containerPath string, w io.Writer) (*store.ResidualRecord, error) {
		f, err := os.Open(containerPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		idx, err := rqm.ReadStreamIndex(f)
		if err != nil {
			return nil, err
		}
		var recon []float64
		var blocks []int
		for _, e := range idx.Entries {
			vals, err := rqm.ReadStreamChunk(f, e)
			if err != nil {
				return nil, err
			}
			recon = append(recon, vals...)
			blocks = append(blocks, len(vals))
		}
		recon[0] = math.Nextafter(recon[0], math.Inf(1))
		c, err := residual.ByName("ans")
		if err != nil {
			return nil, err
		}
		if _, err := residual.Encode(w, c, prec, orig, recon, blocks); err != nil {
			return nil, err
		}
		return &store.ResidualRecord{Backend: "ans"}, nil
	}
}

// TestDeepVerifyProvesOriginalHash pins deep verification's last step: a
// residual that passes every file check but does not rebuild the original
// passes shallow verification and fails deep, and ReadExact refuses it.
func TestDeepVerifyProvesOriginalHash(t *testing.T) {
	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	f := testField(t, 2048)
	m, err := putWith(s, "liar", f, 256, 1e-3, wrongReconResidual(f.Data, f.Prec))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.VerifyDataset("liar", false); err != nil {
		t.Fatalf("shallow verify: %v", err)
	}
	if err := s.VerifyDataset("liar", true); !errors.Is(err, store.ErrCorruptDataset) {
		t.Fatalf("deep verify: %v, want ErrCorruptDataset", err)
	}
	if _, err := s.ReadExact(m, nil); !errors.Is(err, store.ErrCorruptDataset) {
		t.Fatalf("ReadExact: %v, want ErrCorruptDataset", err)
	}
	// The sound residual of the same field proves itself.
	good := putPromoted(t, s, "sound", f, 256, 1e-3, "ans")
	if err := s.VerifyDataset("sound", true); err != nil {
		t.Fatalf("deep verify of a sound residual: %v", err)
	}
	if _, err := s.ReadExact(good, nil); err != nil {
		t.Fatalf("ReadExact of a sound residual: %v", err)
	}
}

// TestStagedResidualCRCRefused pins staging's shallow residual check: a
// builder whose block payload no longer matches its CRC is refused typed,
// and nothing is committed.
func TestStagedResidualCRCRefused(t *testing.T) {
	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	f := testField(t, 2048)
	flipped := func(containerPath string, w io.Writer) (*store.ResidualRecord, error) {
		var buf bytes.Buffer
		rec, err := store.BuildResidual(f.Data, f.Prec, "ans")(containerPath, &buf)
		if err != nil {
			return nil, err
		}
		b := buf.Bytes()
		idx, err := residual.LoadIndex(bytes.NewReader(b))
		if err != nil {
			return nil, err
		}
		e := idx.Blocks[0]
		b[e.Offset+13+int64(e.EncBytes/2)] ^= 0x40 // past the 13-byte block header
		_, err = w.Write(b)
		return rec, err
	}
	writes := s.Writes()
	if _, err := putWith(s, "flip", f, 256, 1e-3, flipped); !errors.Is(err, store.ErrCorruptDataset) {
		t.Fatalf("residual with a bad block CRC: %v, want ErrCorruptDataset", err)
	}
	if _, err := s.Manifest("flip"); !errors.Is(err, store.ErrNotFound) || s.Writes() != writes {
		t.Fatalf("refused residual left a committed dataset behind (%v)", err)
	}
}
