package store_test

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"rqm/internal/faultfs"
	"rqm/internal/store"
)

// The corruption matrix: flip a byte at every 101-byte stride of a committed
// dataset's container and manifest, and pin the failure contract at each
// offset. The stride is coprime with the container's structural periods
// (22-byte chunk heads, 24-byte trailer entries, 8-byte floats), so
// successive strides drift through every kind of span — header, chunk head,
// payload, trailer, footer, JSON keys, base64 profile bytes.
//
// The contract, per flipped byte:
//
//   - No read or verification path may panic.
//   - Any error surfaced must be typed: ErrCorruptDataset or the manifest's
//     own sentinels — never a bare wrapping a caller can't match.
//   - Deep verification must catch EVERY container flip: chunk payloads via
//     CRC, everything else via the commit-time ContainerHash. (A manifest
//     flip may instead parse cleanly when it lands in an unvalidated string
//     value — allowed, as long as nothing lies typed-less or panics.)

// typedCorruption reports whether err matches one of the integrity
// sentinels a caller is entitled to switch on.
func typedCorruption(err error) bool {
	return errors.Is(err, store.ErrCorruptDataset) ||
		errors.Is(err, store.ErrManifestCorrupt) ||
		errors.Is(err, store.ErrManifestVersion)
}

func TestCorruptionMatrixContainer(t *testing.T) {
	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := putField(t, s, "matrix", testField(t, 2048), 256, 1e-4)
	path, err := s.ContainerPath("matrix")
	if err != nil {
		t.Fatal(err)
	}
	size := m.ContainerBytes
	if size < 404 {
		t.Fatalf("container only %d bytes — matrix needs several strides", size)
	}

	caught := 0
	for off := int64(0); off < size; off += 101 {
		if err := faultfs.CorruptFile(path, off); err != nil {
			t.Fatal(err)
		}

		// Read paths: manifest load, range read. Must not panic; errors
		// must be typed.
		if _, merr := s.Manifest("matrix"); merr != nil {
			t.Fatalf("offset %d: manifest read broke on a container flip: %v", off, merr)
		}
		if _, rerr := readRange(s, "matrix", 0, m.TotalValues); rerr != nil && !typedCorruption(rerr) {
			t.Fatalf("offset %d: untyped read error: %v", off, rerr)
		}

		// Shallow verification may miss spans no CRC covers, but when it
		// fires it must be typed.
		if verr := s.VerifyDataset("matrix", false); verr != nil && !typedCorruption(verr) {
			t.Fatalf("offset %d: untyped shallow verify error: %v", off, verr)
		}

		// Deep verification must catch every single flip.
		derr := s.VerifyDataset("matrix", true)
		if derr == nil {
			t.Fatalf("offset %d: deep verify missed a container flip", off)
		}
		if !typedCorruption(derr) {
			t.Fatalf("offset %d: untyped deep verify error: %v", off, derr)
		}
		caught++

		// Restore (XOR flip is an involution) and require full health back.
		if err := faultfs.CorruptFile(path, off); err != nil {
			t.Fatal(err)
		}
		if verr := s.VerifyDataset("matrix", true); verr != nil {
			t.Fatalf("offset %d: dataset not restored after un-flip: %v", off, verr)
		}
	}
	if caught < 4 {
		t.Fatalf("matrix exercised only %d offsets", caught)
	}
}

func TestCorruptionMatrixManifest(t *testing.T) {
	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	putField(t, s, "mmatrix", testField(t, 1024), 256, 1e-3)
	mpath := filepath.Join(s.Dir(), "datasets", "mmatrix", store.ManifestFile)
	fi, err := os.Stat(mpath)
	if err != nil {
		t.Fatal(err)
	}
	size := fi.Size()

	typed, clean := 0, 0
	for off := int64(0); off < size; off += 101 {
		if err := faultfs.CorruptFile(mpath, off); err != nil {
			t.Fatal(err)
		}

		_, merr := s.Manifest("mmatrix")
		verr := s.VerifyDataset("mmatrix", true)
		switch {
		case merr == nil && verr == nil:
			// The flip landed in an unvalidated string value: a clean parse
			// is acceptable — the dataset still serves.
			clean++
		case merr != nil && !typedCorruption(merr):
			t.Fatalf("offset %d: untyped manifest error: %v", off, merr)
		case verr != nil && !typedCorruption(verr):
			t.Fatalf("offset %d: untyped verify error: %v", off, verr)
		default:
			typed++
		}

		if err := faultfs.CorruptFile(mpath, off); err != nil {
			t.Fatal(err)
		}
		if verr := s.VerifyDataset("mmatrix", true); verr != nil {
			t.Fatalf("offset %d: dataset not restored after un-flip: %v", off, verr)
		}
	}
	// The harness must actually bite: most manifest bytes are load-bearing.
	if typed == 0 {
		t.Fatal("no manifest flip produced a typed error")
	}
	t.Logf("manifest matrix: %d typed, %d clean parses over %d offsets", typed, clean, typed+clean)
}

// TestCorruptionMatrixScrubSweep runs one scrub per corrupted copy of the
// SAME archive state (fault injected as a read view, so nothing needs
// restoring) and pins that scrub itself never panics and always produces a
// coherent report.
func TestCorruptionMatrixScrubSweep(t *testing.T) {
	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := putField(t, s, "sweep", testField(t, 1024), 256, 1e-3)
	ffs := faultfs.New()
	s.SetReadFS(ffs)

	for off := int64(0); off < m.ContainerBytes; off += 101 {
		fault := faultfs.NewFault()
		fault.FlipOffset = off
		ffs.Set("sweep/"+store.ContainerFile, fault)
		err := s.VerifyDataset("sweep", true)
		if err == nil {
			t.Fatalf("offset %d: deep verify missed an injected flip", off)
		}
		if !typedCorruption(err) {
			t.Fatalf("offset %d: untyped: %v", off, err)
		}
	}
	ffs.Reset()
	if err := s.VerifyDataset("sweep", true); err != nil {
		t.Fatalf("store damaged by injected views: %v", err)
	}
	if _, _, quarantined, _ := s.ScrubStats(); quarantined != 0 {
		t.Fatalf("%d datasets quarantined — VerifyDataset must not quarantine", quarantined)
	}
}

// TestCorruptionMatrixProfileSamples extends the matrix to the profile
// samples sidecar, which only a model question reads. A byte flipped at any
// offset leaves the size the head records, so stat, slice and shallow
// verification still serve, while FullManifest and deep verification catch
// it typed. A missing or truncated sidecar fails shallow verification too.
// The same holds for faults injected as read views: every sidecar read goes
// through ReadFS.
func TestCorruptionMatrixProfileSamples(t *testing.T) {
	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := putField(t, s, "smatrix", testField(t, 8192), 1024, 1e-4)
	path := filepath.Join(s.Dir(), "datasets", "smatrix", store.ProfileFile)
	head, err := s.Manifest("smatrix")
	if err != nil {
		t.Fatal(err)
	}
	size := head.ProfileSamples.Bytes
	if fi, err := os.Stat(path); err != nil || fi.Size() != size || size < 404 {
		t.Fatalf("sidecar %v, %v; head records %d bytes — the matrix needs several strides", fi, err, size)
	}
	serves := func(when string) {
		t.Helper()
		if _, err := s.Manifest("smatrix"); err != nil {
			t.Fatalf("%s: stat: %v", when, err)
		}
		if _, err := readRange(s, "smatrix", 100, 1000); err != nil {
			t.Fatalf("%s: slice: %v", when, err)
		}
	}
	fails := func(when string, deep bool) {
		t.Helper()
		if err := s.VerifyDataset("smatrix", deep); !errors.Is(err, store.ErrCorruptDataset) {
			t.Fatalf("%s: verify (deep=%v): %v, want ErrCorruptDataset", when, deep, err)
		}
		if _, err := s.FullManifest(head); !errors.Is(err, store.ErrCorruptDataset) {
			t.Fatalf("%s: FullManifest: %v, want ErrCorruptDataset", when, err)
		}
	}

	for off := int64(0); off < size; off += 101 {
		if err := faultfs.CorruptFile(path, off); err != nil {
			t.Fatal(err)
		}
		when := "flip at " + strconv.FormatInt(off, 10)
		serves(when)
		if err := s.VerifyDataset("smatrix", false); err != nil {
			t.Fatalf("%s: shallow verify: %v", when, err)
		}
		fails(when, true)
		if err := faultfs.CorruptFile(path, off); err != nil {
			t.Fatal(err)
		}
	}

	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, damage := range []struct {
		name string
		data []byte
	}{{"truncated", good[:size-8]}, {"empty", nil}} {
		if err := os.WriteFile(path, damage.data, 0o644); err != nil {
			t.Fatal(err)
		}
		serves(damage.name)
		fails(damage.name, false)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	serves("missing")
	fails("missing", false)
	if err := os.WriteFile(path, good, 0o644); err != nil {
		t.Fatal(err)
	}

	ffs := faultfs.New()
	s.SetReadFS(ffs)
	for _, fault := range []faultfs.Fault{
		{FlipOffset: size / 2, TruncateTo: -1},
		{FlipOffset: -1, TruncateTo: size / 2},
	} {
		ffs.Set("smatrix/"+store.ProfileFile, fault)
		fails("view", fault.TruncateTo < 0)
	}
	ffs.Reset()
	s.SetReadFS(nil)

	full, err := s.FullManifest(head)
	if err != nil {
		t.Fatalf("restored sidecar: %v", err)
	}
	if !reflect.DeepEqual(full.Profile, m.Profile) || full.Version != store.WireVersion || full.ProfileSamples != nil {
		t.Fatal("FullManifest does not give back the profile Put committed")
	}

	// A deep scrub quarantines a flipped sidecar, whole dataset with it.
	if err := faultfs.CorruptFile(path, size/3); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Scrub(store.ScrubOptions{Deep: true})
	if err != nil || rep.DatasetsQuarantined != 1 || len(rep.Issues) != 1 || !rep.Issues[0].Quarantined {
		t.Fatalf("deep scrub: %+v, %v", rep, err)
	}
	if _, err := os.Stat(filepath.Join(s.Dir(), store.QuarantineDir, "smatrix", store.ProfileFile)); err != nil {
		t.Fatalf("quarantine lost the sidecar: %v", err)
	}
	if total, n := s.Bytes(); total != 0 || n != 0 {
		t.Fatalf("gauges (%d, %d) after quarantining the only dataset", total, n)
	}
}
