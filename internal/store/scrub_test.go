package store_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rqm/internal/codec"
	"rqm/internal/faultfs"
	"rqm/internal/residual"
	"rqm/internal/store"
)

// payloadOffset returns a byte offset guaranteed to land inside the first
// chunk's CRC-covered payload (past the 22-byte record head), so a flip
// there is detectable by the shallow pass.
func payloadOffset(t *testing.T, m *store.Manifest) int64 {
	t.Helper()
	c := m.Chunks[0]
	if c.RecordBytes < 32 {
		t.Fatalf("chunk 0 is only %d bytes — too small to target its payload", c.RecordBytes)
	}
	return c.Offset + 22 + 5
}

func TestPutStampsContainerHash(t *testing.T) {
	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := putField(t, s, "hash-stamp", testField(t, 2048), 512, 1e-4)
	if len(m.ContainerHash) != 64 {
		t.Fatalf("ContainerHash = %q, want a SHA-256 hex digest", m.ContainerHash)
	}
	p, err := s.ContainerPath("hash-stamp")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	if got := hex.EncodeToString(sum[:]); got != m.ContainerHash {
		t.Fatalf("container hashes to %s, manifest stamped %s", got, m.ContainerHash)
	}
	// The stamp survives the commit: a reloaded manifest carries it.
	m2, err := s.Manifest("hash-stamp")
	if err != nil || m2.ContainerHash != m.ContainerHash {
		t.Fatalf("reloaded ContainerHash = %q, %v", m2.ContainerHash, err)
	}
}

func TestScrubCleanArchive(t *testing.T) {
	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	putField(t, s, "clean-a", testField(t, 2048), 512, 1e-4)
	putField(t, s, "clean-b", testField(t, 1024), 256, 1e-3)

	for _, deep := range []bool{false, true} {
		rep, err := s.Scrub(store.ScrubOptions{Deep: deep})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Deep != deep || rep.Datasets != 2 || len(rep.Issues) != 0 {
			t.Fatalf("deep=%v report %+v", deep, rep)
		}
		if rep.ChunksVerified != 8 { // 4 + 4 chunks
			t.Fatalf("deep=%v verified %d chunks, want 8", deep, rep.ChunksVerified)
		}
		if rep.BytesScanned == 0 || rep.BytesVerified != rep.BytesScanned {
			t.Fatalf("deep=%v bytes scanned %d / verified %d", deep, rep.BytesScanned, rep.BytesVerified)
		}
		if rep.DatasetsQuarantined != 0 || rep.BytesQuarantined != 0 {
			t.Fatalf("deep=%v clean pass quarantined %d datasets", deep, rep.DatasetsQuarantined)
		}
		if rep.FinishedAt.Before(rep.StartedAt) {
			t.Fatalf("deep=%v report timestamps inverted", deep)
		}
	}
	runs, chunks, quarantined, qbytes := s.ScrubStats()
	if runs != 2 || chunks != 16 || quarantined != 0 || qbytes != 0 {
		t.Fatalf("ScrubStats = %d runs, %d chunks, %d/%d quarantined", runs, chunks, quarantined, qbytes)
	}
}

func TestScrubProgress(t *testing.T) {
	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"pg-a", "pg-b", "pg-c"} {
		putField(t, s, name, testField(t, 512), 256, 1e-3)
	}
	var calls int
	var lastScanned, lastTotal int
	_, err = s.Scrub(store.ScrubOptions{Progress: func(scanned, total int, name string) {
		calls++
		lastScanned, lastTotal = scanned, total
		if name == "" {
			t.Error("progress callback with empty name")
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 3 || lastScanned != 3 || lastTotal != 3 {
		t.Fatalf("progress: %d calls, last %d/%d", calls, lastScanned, lastTotal)
	}
}

func TestScrubQuarantinesFlippedContainer(t *testing.T) {
	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := putField(t, s, "rot", testField(t, 2048), 512, 1e-4)
	putField(t, s, "fine", testField(t, 1024), 256, 1e-3)
	preTotal, preCount := s.Bytes()

	p, err := s.ContainerPath("rot")
	if err != nil {
		t.Fatal(err)
	}
	if err := faultfs.CorruptFile(p, payloadOffset(t, m)); err != nil {
		t.Fatal(err)
	}

	rep, err := s.Scrub(store.ScrubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Issues) != 1 || rep.Issues[0].Name != "rot" || !rep.Issues[0].Quarantined {
		t.Fatalf("report issues %+v", rep.Issues)
	}
	if !strings.Contains(rep.Issues[0].Reason, "corrupt") {
		t.Fatalf("issue reason %q does not name corruption", rep.Issues[0].Reason)
	}
	if rep.DatasetsQuarantined != 1 || rep.BytesQuarantined == 0 {
		t.Fatalf("report %+v", rep)
	}
	// The healthy dataset was verified, not collateral damage.
	if rep.Datasets != 2 || rep.BytesVerified == 0 {
		t.Fatalf("report %+v", rep)
	}

	// The corrupt dataset is invisible to every reader now.
	if _, err := s.Manifest("rot"); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("quarantined manifest read: %v", err)
	}
	if _, err := s.ContainerPath("rot"); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("quarantined container path: %v", err)
	}
	list, err := s.List()
	if err != nil || len(list) != 1 || list[0].Name != "fine" {
		t.Fatalf("list after quarantine: %v, %v", list, err)
	}
	// Accounting: the archive shrank by the quarantined footprint.
	postTotal, postCount := s.Bytes()
	if postCount != preCount-1 || postTotal >= preTotal {
		t.Fatalf("bytes %d→%d, datasets %d→%d", preTotal, postTotal, preCount, postCount)
	}

	// The evidence is preserved under quarantine/ — both files, verbatim.
	qdir := filepath.Join(s.Dir(), store.QuarantineDir, "rot")
	for _, f := range []string{store.ContainerFile, store.ManifestFile} {
		if _, err := os.Stat(filepath.Join(qdir, f)); err != nil {
			t.Fatalf("quarantine missing %s: %v", f, err)
		}
	}
	_, _, quarantined, qbytes := s.ScrubStats()
	if quarantined != 1 || qbytes != rep.BytesQuarantined {
		t.Fatalf("ScrubStats quarantined %d/%d", quarantined, qbytes)
	}

	// The name is free again: a fresh put under it works and scrubs clean.
	putField(t, s, "rot", testField(t, 1024), 256, 1e-3)
	rep2, err := s.Scrub(store.ScrubOptions{Deep: true})
	if err != nil || len(rep2.Issues) != 0 {
		t.Fatalf("post-requarantine scrub: %+v, %v", rep2, err)
	}
}

func TestScrubQuarantineKeepsEarlierEvidence(t *testing.T) {
	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		m := putField(t, s, "repeat", testField(t, 1024), 256, 1e-3)
		p, err := s.ContainerPath("repeat")
		if err != nil {
			t.Fatal(err)
		}
		if err := faultfs.CorruptFile(p, payloadOffset(t, m)); err != nil {
			t.Fatal(err)
		}
		rep, err := s.Scrub(store.ScrubOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if rep.DatasetsQuarantined != 1 {
			t.Fatalf("round %d: %+v", i, rep)
		}
	}
	// Both quarantined generations exist: the second got a ".1" suffix.
	for _, dir := range []string{"repeat", "repeat.1"} {
		if _, err := os.Stat(filepath.Join(s.Dir(), store.QuarantineDir, dir)); err != nil {
			t.Fatalf("quarantine %s: %v", dir, err)
		}
	}
}

func TestScrubQuarantinesTornManifest(t *testing.T) {
	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	putField(t, s, "torn", testField(t, 1024), 256, 1e-3)
	mpath := filepath.Join(s.Dir(), "datasets", "torn", store.ManifestFile)
	raw, err := os.ReadFile(mpath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(mpath, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	rep, err := s.Scrub(store.ScrubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.DatasetsQuarantined != 1 || len(rep.Issues) != 1 || !rep.Issues[0].Quarantined {
		t.Fatalf("report %+v", rep)
	}
	if _, err := s.Manifest("torn"); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("torn dataset still visible: %v", err)
	}
}

func TestScrubQuarantinesOrphanContainer(t *testing.T) {
	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	putField(t, s, "orphan", testField(t, 1024), 256, 1e-3)
	if err := os.Remove(filepath.Join(s.Dir(), "datasets", "orphan", store.ManifestFile)); err != nil {
		t.Fatal(err)
	}

	rep, err := s.Scrub(store.ScrubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.DatasetsQuarantined != 1 {
		t.Fatalf("orphan container not quarantined: %+v", rep)
	}
	if _, err := os.Stat(filepath.Join(s.Dir(), store.QuarantineDir, "orphan", store.ContainerFile)); err != nil {
		t.Fatalf("orphan evidence: %v", err)
	}
}

func TestScrubIOErrorIsNotQuarantined(t *testing.T) {
	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	putField(t, s, "flaky", testField(t, 1024), 256, 1e-3)

	ffs := faultfs.New()
	fault := faultfs.NewFault()
	fault.Err = errors.New("transient I/O failure")
	ffs.Set("flaky/"+store.ContainerFile, fault)
	s.SetReadFS(ffs)

	rep, err := s.Scrub(store.ScrubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Issues) != 1 || rep.Issues[0].Quarantined || rep.DatasetsQuarantined != 0 {
		t.Fatalf("I/O failure handling: %+v", rep)
	}

	// The fault clears; the dataset was never moved and verifies clean.
	s.SetReadFS(nil)
	if err := s.VerifyDataset("flaky", true); err != nil {
		t.Fatalf("dataset damaged by a transient error: %v", err)
	}
}

func TestVerifyDatasetAndReadsAreTypedUnderInjectedCorruption(t *testing.T) {
	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := putField(t, s, "inj", testField(t, 2048), 512, 1e-4)

	ffs := faultfs.New()
	s.SetReadFS(ffs)

	// Flip a payload byte in the served view: chunk CRC catches it.
	fault := faultfs.NewFault()
	fault.FlipOffset = payloadOffset(t, m)
	ffs.Set("inj/"+store.ContainerFile, fault)
	if err := s.VerifyDataset("inj", false); !errors.Is(err, store.ErrCorruptDataset) {
		t.Fatalf("verify under flip: %v", err)
	}
	if err := s.VerifyLoaded("inj", m, false); !errors.Is(err, store.ErrCorruptDataset) {
		t.Fatalf("verify against the held manifest under flip: %v", err)
	}
	if _, err := readRange(s, "inj", 0, 2048); !errors.Is(err, store.ErrCorruptDataset) {
		t.Fatalf("read under flip: %v", err)
	}

	// Truncate the served view: framing fails typed.
	short := faultfs.NewFault()
	short.TruncateTo = m.ContainerBytes / 2
	ffs.Set("inj/"+store.ContainerFile, short)
	if err := s.VerifyDataset("inj", false); !errors.Is(err, store.ErrCorruptDataset) {
		t.Fatalf("verify under truncation: %v", err)
	}

	// Tear the manifest's served view: the manifest's own typed error.
	ffs.Clear("inj/" + store.ContainerFile)
	torn := faultfs.NewFault()
	torn.Tear = true
	ffs.Set("inj/"+store.ManifestFile, torn)
	if _, err := s.Manifest("inj"); !errors.Is(err, store.ErrManifestCorrupt) {
		t.Fatalf("manifest under tear: %v", err)
	}

	// All faults off: the store is intact — the injections were views.
	ffs.Reset()
	if err := s.VerifyDataset("inj", true); err != nil {
		t.Fatalf("verify after reset: %v", err)
	}
	if err := s.VerifyLoaded("inj", m, true); err != nil {
		t.Fatalf("verify against the held manifest after reset: %v", err)
	}
	// A manifest is only evidence about the dataset it names.
	other := putField(t, s, "other", testField(t, 2048), 512, 1e-4)
	if err := s.VerifyLoaded("inj", other, false); !errors.Is(err, store.ErrCorruptDataset) {
		t.Fatalf("verify against another dataset's manifest: %v", err)
	}
}

func TestDeepScrubCatchesContainerHashMismatch(t *testing.T) {
	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := putField(t, s, "deep", testField(t, 1024), 256, 1e-3)

	// Rewrite the manifest with a different (still well-formed) container
	// hash: every shallow check still passes — only the deep whole-file
	// hash comparison can see the disagreement.
	mpath := filepath.Join(s.Dir(), "datasets", "deep", store.ManifestFile)
	raw, err := os.ReadFile(mpath)
	if err != nil {
		t.Fatal(err)
	}
	other := strings.Repeat("0123456789abcdef", 4)
	if other == m.ContainerHash {
		t.Fatal("colliding stand-in hash")
	}
	edited := strings.Replace(string(raw), m.ContainerHash, other, 1)
	if edited == string(raw) {
		t.Fatal("manifest does not embed the container hash")
	}
	if err := os.WriteFile(mpath, []byte(edited), 0o644); err != nil {
		t.Fatal(err)
	}

	if err := s.VerifyDataset("deep", false); err != nil {
		t.Fatalf("shallow verify should pass: %v", err)
	}
	err = s.VerifyDataset("deep", true)
	if !errors.Is(err, store.ErrCorruptDataset) {
		t.Fatalf("deep verify: %v", err)
	}
	rep, err := s.Scrub(store.ScrubOptions{Deep: true})
	if err != nil || rep.DatasetsQuarantined != 1 {
		t.Fatalf("deep scrub: %+v, %v", rep, err)
	}
}

// TestReadsCheckTheContainerHeader: every read of values parses the
// container's stream header before its first chunk, so a container in a
// version this build does not read — here the TestScrubLeavesNewerVersionsInPlace
// forgery, its hash re-stamped so only the version byte tells — is refused
// with ErrCorruptDataset wrapping codec.ErrUnsupportedVersion, not decoded
// through the manifest's chunk index as if it were this build's format.
func TestReadsCheckTheContainerHeader(t *testing.T) {
	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	putPromoted(t, s, "v3", f32Field(t, 4096), 1024, 1e-3, residual.DefaultBackend)
	dir := filepath.Join(s.Dir(), "datasets", "v3")
	raw, err := os.ReadFile(filepath.Join(dir, store.ContainerFile))
	if err != nil {
		t.Fatal(err)
	}
	was := sha256.Sum256(raw)
	raw[4] = 3 // the stream header's version byte
	now := sha256.Sum256(raw)
	man, err := os.ReadFile(filepath.Join(dir, store.ManifestFile))
	if err != nil {
		t.Fatal(err)
	}
	man = bytes.ReplaceAll(man, []byte(hex.EncodeToString(was[:])), []byte(hex.EncodeToString(now[:])))
	for file, b := range map[string][]byte{store.ContainerFile: raw, store.ManifestFile: man} {
		if err := os.WriteFile(filepath.Join(dir, file), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	m, err := s.Manifest("v3")
	if err != nil {
		t.Fatal(err)
	}
	for read, fn := range map[string]func() error{
		"ReadRangeWith":    func() error { _, err := s.ReadRangeWith(m, 100, 2000); return err },
		"ReadRangeExact":   func() error { _, err := s.ReadRangeExact(m, 100, 2000); return err },
		"ReadValues":       func() error { _, err := s.ReadValues(m, false, nil); return err },
		"exact ReadValues": func() error { _, err := s.ReadValues(m, true, nil); return err },
	} {
		if err := fn(); !errors.Is(err, store.ErrCorruptDataset) || !errors.Is(err, codec.ErrUnsupportedVersion) {
			t.Errorf("%s of a version-3 container: %v, want ErrCorruptDataset wrapping ErrUnsupportedVersion", read, err)
		}
	}
}

// TestScrubLeavesNewerVersionsInPlace: a container or residual whose format
// version this build does not read, but which still hashes to the record
// its manifest keeps, was written by a newer build: scrub reports it, names
// the version and leaves the dataset in place. The same version byte
// without a matching record is corruption and is quarantined. The read gate
// answers ErrCorruptDataset either way.
func TestScrubLeavesNewerVersionsInPlace(t *testing.T) {
	for _, tc := range []struct {
		name, file string
		rehash     bool
	}{
		{"forged residual", store.ResidualFile, true},
		{"forged container", store.ContainerFile, true},
		{"flipped residual", store.ResidualFile, false},
		{"flipped container", store.ContainerFile, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := store.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			putPromoted(t, s, "v3", f32Field(t, 4096), 1024, 1e-3, residual.DefaultBackend)
			dir := filepath.Join(s.Dir(), "datasets", "v3")
			path := filepath.Join(dir, tc.file)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(raw)
			was := hex.EncodeToString(sum[:])
			raw[4] = 3 // the version byte of a container and of a residual
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			if tc.rehash {
				mpath := filepath.Join(dir, store.ManifestFile)
				man, err := os.ReadFile(mpath)
				if err != nil {
					t.Fatal(err)
				}
				sum = sha256.Sum256(raw)
				man = bytes.ReplaceAll(man, []byte(was), []byte(hex.EncodeToString(sum[:])))
				if err := os.WriteFile(mpath, man, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			for _, deep := range []bool{false, true} {
				rep, err := s.Scrub(store.ScrubOptions{Deep: deep})
				if err != nil {
					t.Fatal(err)
				}
				if !tc.rehash {
					if len(rep.Issues) != 1 || !rep.Issues[0].Quarantined || rep.DatasetsQuarantined != 1 {
						t.Fatalf("deep=%v: a version byte that fails its hash was not quarantined: %+v", deep, rep)
					}
					return
				}
				if len(rep.Issues) != 1 || rep.Issues[0].Quarantined || rep.DatasetsQuarantined != 0 {
					t.Fatalf("deep=%v: intact newer %s: %+v", deep, tc.file, rep)
				}
				if r := rep.Issues[0].Reason; !strings.Contains(r, "unsupported") || !strings.Contains(r, "version") || !strings.Contains(r, "3") {
					t.Fatalf("deep=%v: reason %q does not name the version", deep, r)
				}
			}
			m, err := s.Manifest("v3")
			if err != nil {
				t.Fatalf("the dataset left in place does not answer: %v", err)
			}
			// The check every served GET runs before its status line.
			if err := s.VerifyLoaded("v3", m, false); !errors.Is(err, store.ErrCorruptDataset) {
				t.Fatalf("read gate on a newer %s: %v, want ErrCorruptDataset", tc.file, err)
			}
		})
	}
}
