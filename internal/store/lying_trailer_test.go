package store_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"rqm/internal/codec"
	"rqm/internal/store"
)

// lieAboutValues rewrites a 4-chunk container's trailer so that entry 0
// claims twice its record's values and entries 2 and 3 half each — count,
// total, offsets and the trailer CRC stay consistent; only the record heads
// disagree. It returns the container and the lying entries.
func lieAboutValues(t testing.TB, honest []byte) ([]byte, []codec.IndexEntry) {
	t.Helper()
	idx, err := codec.LoadIndex(bytes.NewReader(honest))
	if err != nil {
		t.Fatal(err)
	}
	lie := slices.Clone(idx.Entries)
	lie[0].Values, lie[2].Values, lie[3].Values = 2*lie[0].Values, lie[2].Values/2, lie[3].Values/2
	trailer := lie[3].Offset + int64(lie[3].RecordBytes)
	buf := bytes.NewBuffer(bytes.Clone(honest[:trailer]))
	if _, err := codec.WriteTrailer(buf, lie, idx.TotalValues, trailer); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), lie
}

// TestLyingTrailerNeverPublishedNeverServed is probe (1) of ISSUE 24 at the
// store: a container whose trailer entry says 2048 values over a 1024-value
// record used to be admitted by Put (the manifest copied the lie), pass
// shallow verification, and panic ReadRangeWith with a slice out of range.
func TestLyingTrailerNeverPublishedNeverServed(t *testing.T) {
	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := putField(t, s, "honest", testField(t, 4096), 1024, 1e-4)
	cpath, err := s.ContainerPath("honest")
	if err != nil {
		t.Fatal(err)
	}
	honest, err := os.ReadFile(cpath)
	if err != nil {
		t.Fatal(err)
	}
	lying, lie := lieAboutValues(t, honest)

	// Commit time: the bytes are refused at staging and nothing is published.
	man := *m
	man.ContainerHash = "" // so only the container's own contradiction can refuse it
	_, err = s.Put("liar", func(w io.Writer) (*store.Manifest, error) {
		_, err := w.Write(lying)
		return &man, err
	})
	if !errors.Is(err, store.ErrCorruptDataset) {
		t.Fatalf("Put of a lying container: %v, want ErrCorruptDataset", err)
	}
	if _, err := s.Manifest("liar"); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("lying container was published: %v", err)
	}

	// Scrub and read time: the same bytes planted under a committed manifest
	// that repeats the lie (as a pre-fix Put would have written it).
	for i := range m.Chunks {
		m.Chunks[i].Values = lie[i].Values
	}
	raw, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cpath, lying, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(filepath.Dir(cpath), store.ManifestFile), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	planted, err := s.Manifest("honest")
	if err != nil {
		t.Fatalf("planted manifest must parse — the lie is self-consistent: %v", err)
	}
	if err := s.VerifyDataset("honest", false); !errors.Is(err, store.ErrCorruptDataset) {
		t.Fatalf("shallow verify of a lying container: %v, want ErrCorruptDataset", err)
	}
	if _, err := s.ReadRangeWith(planted, 1500, 10); !errors.Is(err, store.ErrCorruptDataset) {
		t.Fatalf("ReadRangeWith inside the lying entry: %v, want ErrCorruptDataset", err)
	}
	// The one honest entry still reads: chunk 1 is [2048, 3072) by the lie.
	if vals, err := s.ReadRangeWith(planted, 2100, 10); err != nil || len(vals) != 10 {
		t.Fatalf("ReadRangeWith inside the honest entry: %d values, %v", len(vals), err)
	}
}
