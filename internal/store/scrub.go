// Integrity scrubbing: the background pass that turns "a flipped byte is
// discovered lazily at read time" into "a flipped byte is found, typed, and
// quarantined before a reader trips on it".
//
// Verification has two depths. The shallow pass re-frames the container
// against its own trailer index, cross-checks that index against the
// manifest's chunk records (two independently stored copies of the chunk
// geometry must agree exactly), and CRC-verifies every chunk payload. The
// deep pass additionally decodes every chunk through the codec registry and
// re-hashes the whole container file against the manifest's ContainerHash —
// the only check that covers spans no CRC does (the stream header, the
// chunk record heads themselves). A residual layer gets the same two depths:
// size, index and block-for-chunk layout plus every block CRC, and deep
// re-hashes the file and proves the exact reconstruction against the
// original hash. ContentHash is deliberately NOT part of either pass: it
// fingerprints the original uncompressed field, which a lossy container
// cannot reproduce — it is an identity, not a checksum. The shallow pass
// over each file is also what Commit runs on the staged files before
// publishing them.
//
// A dataset that fails verification is moved wholesale to quarantine/ under
// the publish lock (same single-rename discipline as Commit), where it stays
// addressable for forensics but invisible to every reader — a quarantined
// name answers ErrNotFound, which is exactly what lets a replicated tier
// re-replicate a good copy over the slot.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"rqm/internal/codec"
	"rqm/internal/residual"
)

// QuarantineDir is the directory under the store root where scrub parks
// corrupt datasets.
const QuarantineDir = "quarantine"

// ErrScrubCorrupt marks a dataset a scrub pass found corrupt and moved to
// quarantine/. It wraps ErrCorruptDataset, so errors.Is against either
// sentinel matches.
var ErrScrubCorrupt = fmt.Errorf("%w: failed scrub verification", ErrCorruptDataset)

// ScrubOptions configures one scrub pass.
type ScrubOptions struct {
	// Deep additionally decodes every chunk, re-hashes the container and
	// residual files against the manifest, and proves a residual layer's
	// exact reconstruction against its original hash. Roughly the cost of
	// reading every dataset end to end, vs the shallow pass's CRC-only
	// sweep.
	Deep bool
	// Progress, when set, is called after each dataset is scrubbed.
	Progress func(scanned, total int, name string)
}

// ScrubIssue records one dataset a scrub pass could not verify.
type ScrubIssue struct {
	Name   string `json:"name"`
	Reason string `json:"reason"`
	// Bytes is the dataset's on-disk footprint when the issue was found.
	Bytes int64 `json:"bytes"`
	// Quarantined reports whether the dataset was moved to quarantine/.
	// False when the failure was an I/O error rather than proven corruption,
	// or when the dataset was replaced concurrently (the new version is not
	// the one that failed).
	Quarantined bool `json:"quarantined"`
}

// ScrubReport summarizes one scrub pass.
type ScrubReport struct {
	Deep                bool         `json:"deep"`
	Datasets            int          `json:"datasets"`
	ChunksVerified      int64        `json:"chunks_verified"`
	BytesScanned        int64        `json:"bytes_scanned"`
	BytesVerified       int64        `json:"bytes_verified"`
	DatasetsQuarantined int          `json:"datasets_quarantined"`
	BytesQuarantined    int64        `json:"bytes_quarantined"`
	Issues              []ScrubIssue `json:"issues,omitempty"`
	StartedAt           time.Time    `json:"started_at"`
	FinishedAt          time.Time    `json:"finished_at"`
}

// ScrubStats reports the store's cumulative integrity counters since Open:
// scrub passes completed, chunk CRC verifications performed, and datasets /
// bytes moved to quarantine.
func (s *Store) ScrubStats() (runs, chunksVerified, datasetsQuarantined, bytesQuarantined int64) {
	return s.scrubRuns.Load(), s.chunksVerified.Load(),
		s.quarantined.Load(), s.quarantinedBytes.Load()
}

// Scrub walks every dataset directory — including ones List would skip for
// an unparseable manifest, which is precisely a corruption scrub must catch
// — verifies each (see VerifyDataset), and quarantines the ones that fail.
// The walk itself never fails a pass: per-dataset problems are reported as
// Issues, and an error return means the archive could not be enumerated at
// all.
func (s *Store) Scrub(opts ScrubOptions) (*ScrubReport, error) {
	rep := &ScrubReport{Deep: opts.Deep, StartedAt: time.Now().UTC()}
	entries, err := os.ReadDir(filepath.Join(s.root, "datasets"))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var names []string
	for _, e := range entries {
		// Dot-prefixed entries are the replacement protocol's parked copies,
		// not committed datasets.
		if e.IsDir() && !strings.HasPrefix(e.Name(), ".") {
			names = append(names, e.Name())
		}
	}
	for i, name := range names {
		s.scrubDataset(name, opts.Deep, rep)
		if opts.Progress != nil {
			opts.Progress(i+1, len(names), name)
		}
	}
	rep.FinishedAt = time.Now().UTC()
	s.scrubRuns.Add(1)
	return rep, nil
}

// VerifyDataset re-verifies one committed dataset without touching
// quarantine: manifest parse + schema check, trailer index vs manifest
// chunk records, per-chunk CRC, the residual's checks and the profile
// samples' size; deep adds a full decode of every chunk, the container and
// residual SHA-256s, the exact reconstruction's SHA-256 against the
// residual's original hash and the samples' SHA-256. Failures wrap
// ErrCorruptDataset (or the manifest's own typed errors).
func (s *Store) VerifyDataset(name string, deep bool) error {
	if err := ValidateName(name); err != nil {
		return err
	}
	_, _, err := s.verifyDataset(name, deep)
	return err
}

// VerifyLoaded is VerifyDataset for a caller that already holds the
// dataset's parsed manifest (from Manifest): the same container, residual
// and profile samples checks against m, without reading and parsing the
// manifest file again.
func (s *Store) VerifyLoaded(name string, m *Manifest, deep bool) error {
	_, err := s.verifyLoaded(name, m, deep)
	return err
}

// scrubDataset verifies one dataset and folds the outcome into the report,
// quarantining on proven corruption.
func (s *Store) scrubDataset(name string, deep bool, rep *ScrubReport) {
	size := s.datasetSize(name)
	rep.Datasets++
	rep.BytesScanned += size
	raw, chunks, err := s.verifyDataset(name, deep)
	rep.ChunksVerified += chunks
	switch {
	case err == nil:
		rep.BytesVerified += size
	case errors.Is(err, ErrNotFound):
		// Deleted while the pass was running — not this archive's problem.
		rep.Datasets--
		rep.BytesScanned -= size
	case s.newerVersion(name, raw, err):
		// Intact bytes this build cannot read are not corruption: report
		// them and leave the dataset for a build that reads them.
		rep.Issues = append(rep.Issues, ScrubIssue{Name: name, Bytes: size,
			Reason: fmt.Sprintf("left in place: %v; the file hashes to its manifest record, so a newer build wrote it", err)})
	case errors.Is(err, ErrCorruptDataset),
		errors.Is(err, ErrManifestCorrupt),
		errors.Is(err, ErrManifestVersion):
		issue := ScrubIssue{
			Name:   name,
			Reason: fmt.Errorf("%w: %v", ErrScrubCorrupt, err).Error(),
			Bytes:  size,
		}
		if qerr := s.quarantine(name, raw); qerr == nil {
			issue.Quarantined = true
			rep.DatasetsQuarantined++
			rep.BytesQuarantined += size
		}
		rep.Issues = append(rep.Issues, issue)
	default:
		// An I/O failure is not proven corruption: report it, leave the
		// dataset in place for the next pass.
		rep.Issues = append(rep.Issues, ScrubIssue{Name: name, Reason: err.Error(), Bytes: size})
	}
}

// newerVersion reports whether verification of dataset name (against its raw
// manifest) failed on a container or residual format version this build
// does not read, in a file that still hashes to the record the manifest
// keeps for it. A version byte that fails its hash is corruption.
func (s *Store) newerVersion(name string, raw []byte, err error) bool {
	m, perr := ParseManifest(raw)
	if perr != nil {
		return false
	}
	var file, want string
	switch {
	case errors.Is(err, codec.ErrUnsupportedVersion):
		file, want = ContainerFile, m.ContainerHash
	case errors.Is(err, residual.ErrUnsupportedVersion) && m.Residual != nil:
		file, want = ResidualFile, m.Residual.Hash
	}
	if want == "" {
		return false
	}
	f, ferr := s.fs.Open(filepath.Join(s.datasetDir(name), file))
	if ferr != nil {
		return false
	}
	defer f.Close()
	return checkHash(name, file, f, want) == nil
}

// verifyDataset checks one dataset and returns the raw manifest bytes it
// verified against (the identity quarantine later re-checks) plus the number
// of chunks that passed CRC before any failure.
func (s *Store) verifyDataset(name string, deep bool) (raw []byte, chunks int64, err error) {
	dir := s.datasetDir(name)
	raw, err = s.fs.ReadFile(filepath.Join(dir, ManifestFile))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			// The manifest is the commit record. A directory holding a
			// container without one is interrupted-delete debris — corrupt as
			// a dataset, since nothing can ever read it again.
			if _, cerr := os.Stat(filepath.Join(dir, ContainerFile)); cerr == nil {
				return nil, 0, fmt.Errorf("%w: %q: container present but manifest missing", ErrCorruptDataset, name)
			}
			return nil, 0, fmt.Errorf("%w: %q", ErrNotFound, name)
		}
		return nil, 0, fmt.Errorf("store: %w", err)
	}
	m, err := ParseManifest(raw)
	if err != nil {
		return raw, 0, err // typed ErrManifestCorrupt / ErrManifestVersion
	}
	chunks, err = s.verifyLoaded(name, m, deep)
	return raw, chunks, err
}

// verifyLoaded checks dataset name's files against its parsed manifest and
// returns the number of chunks that passed CRC before any failure.
func (s *Store) verifyLoaded(name string, m *Manifest, deep bool) (int64, error) {
	if m.Name != name {
		return 0, fmt.Errorf("%w: %q: manifest names %q", ErrCorruptDataset, name, m.Name)
	}
	dir := s.datasetDir(name)
	_, chunks, err := s.verifyContainer(name, filepath.Join(dir, ContainerFile), m, deep)
	s.chunksVerified.Add(chunks)
	if err != nil {
		return chunks, err
	}
	blocks, err := s.verifyResidual(dir, m, deep)
	s.chunksVerified.Add(blocks)
	if err != nil {
		return chunks, err
	}
	return chunks, s.verifySamples(name, m, deep)
}

// verifySamples checks the profile samples sidecar a version-2 head
// records: present and of the recorded size; deep additionally re-hashes
// and decodes it, as FullManifest does. A version-1 manifest carries its
// samples inline and passes trivially.
func (s *Store) verifySamples(name string, m *Manifest, deep bool) error {
	switch {
	case m.ProfileSamples == nil:
		return nil
	case deep:
		_, err := s.readFull(m)
		return err
	}
	f, err := s.fs.Open(filepath.Join(s.datasetDir(name), ProfileFile))
	if err != nil {
		return samplesReadError(name, err)
	}
	defer f.Close()
	return checkSize(name, ProfileFile, f, m.ProfileSamples.Bytes)
}

// checkSize holds the size of f, dataset name's file, to the size its
// manifest records.
func checkSize(name, file string, f io.Seeker, want int64) error {
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if size != want {
		return fmt.Errorf("%w: %q: %s is %d bytes on disk, manifest records %d",
			ErrCorruptDataset, name, file, size, want)
	}
	return nil
}

// checkHash re-hashes f, dataset name's file, against the SHA-256 its
// manifest records.
func checkHash(name, file string, f io.ReadSeeker, want string) error {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if sum := hex.EncodeToString(h.Sum(nil)); sum != want {
		return fmt.Errorf("%w: %q: %s hashes to %s, manifest records %s",
			ErrCorruptDataset, name, file, sum, want)
	}
	return nil
}

// verifyResidual is the one residual verification, run on a staged
// residual before it is published (dir the staging directory) and on a
// committed one by scrub: openResidual's presence, size, index and layout
// checks, then every block's CRC; deep additionally re-hashes the file
// against the manifest's residual hash and proves the exact reconstruction
// against its original hash (readExact). Datasets without a residual layer
// pass trivially. It returns the number of blocks that passed CRC before
// any failure.
func (s *Store) verifyResidual(dir string, m *Manifest, deep bool) (int64, error) {
	if m.Residual == nil {
		return 0, nil
	}
	f, idx, err := s.openResidual(dir, m)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	var verified int64
	for _, e := range idx.Blocks {
		if err := residual.VerifyBlock(f, idx.Header, e, false); err != nil {
			return verified, corruptResidual(m.Name, err)
		}
		verified++
	}
	if !deep {
		return verified, nil
	}
	if err := checkHash(m.Name, ResidualFile, f, m.Residual.Hash); err != nil {
		return verified, err
	}
	var uncounted atomic.Int64 // verification is not a served read
	return verified, s.readExact(m, &uncounted, func([]byte) error { return nil })
}

// verifyContainer is the one container verification: run on a staged
// container before it is published (m nil — the manifest is about to be
// completed from the very index being verified), on the GET pre-pass and by
// scrub. It returns the index it admitted and the number of chunks that
// passed CRC before any failure.
func (s *Store) verifyContainer(name, path string, m *Manifest, deep bool) (*codec.StreamIndex, int64, error) {
	f, err := s.fs.Open(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, 0, fmt.Errorf("%w: %q: manifest committed but container missing", ErrCorruptDataset, name)
		}
		return nil, 0, fmt.Errorf("store: %w", err)
	}
	defer f.Close()

	// Structural pass: LoadIndex re-parses the stream header, footer, and
	// trailer (trailer payload is itself CRC-protected) and admits the index
	// only if its entries tile the container; the manifest's independently
	// stored copy of the same geometry must then agree with it exactly.
	idx, err := codec.LoadIndex(f)
	if err != nil {
		return nil, 0, corruptRead(name, err)
	}
	if m != nil {
		if err := checkIndex(name, f, idx, m); err != nil {
			return nil, 0, err
		}
	}

	// Payload pass: every record re-framed at its entry, head against entry,
	// payload against the CRC the head declares; deep additionally decodes.
	var verified int64
	err = eachChunk(name, f, idx.Entries, 0, len(idx.Entries), deep, func(int, []float64) error {
		verified++
		return nil
	})
	if err != nil {
		return nil, verified, err
	}

	// Whole-file pass (deep only): the SHA-256 stamped at commit covers the
	// bytes no chunk CRC does. Manifests from before the field existed have
	// no reference hash and skip this check.
	if deep && m != nil && m.ContainerHash != "" {
		if err := checkHash(name, ContainerFile, f, m.ContainerHash); err != nil {
			return nil, verified, err
		}
	}
	return idx, verified, nil
}

// checkIndex holds a container's size and trailer index against the
// manifest's chunk records.
func checkIndex(name string, f io.Seeker, idx *codec.StreamIndex, m *Manifest) error {
	if err := checkSize(name, ContainerFile, f, m.ContainerBytes); err != nil {
		return err
	}
	if idx.TotalValues != m.TotalValues || !slices.Equal(idx.Entries, m.IndexEntries()) {
		return fmt.Errorf("%w: %q: trailer indexes %d chunks / %d values, manifest records %d / %d, or a chunk record differs",
			ErrCorruptDataset, name, len(idx.Entries), idx.TotalValues, len(m.Chunks), m.TotalValues)
	}
	return nil
}

// quarantine moves a corrupt dataset directory out of datasets/ into
// quarantine/ with one rename, under the publish lock. rawManifest is the
// manifest the failed verification read; if the committed manifest no
// longer matches it byte for byte, the dataset was replaced mid-scrub and
// the (new, unverified-but-not-failed) version is left alone with
// ErrConflict. A name already in quarantine gets a ".N" suffix rather than
// overwriting earlier evidence.
func (s *Store) quarantine(name string, rawManifest []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	dir := s.datasetDir(name)
	if _, err := os.Stat(dir); err != nil {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	cur, err := os.ReadFile(filepath.Join(dir, ManifestFile))
	switch {
	case rawManifest == nil && err == nil,
		rawManifest != nil && (err != nil || !bytes.Equal(cur, rawManifest)):
		return fmt.Errorf("%w: %q", ErrConflict, name)
	}
	size := s.datasetSize(name)
	res := s.residualSize(name)
	hadManifest := err == nil
	dst := filepath.Join(s.root, QuarantineDir, name)
	for i := 1; ; i++ {
		if _, err := os.Stat(dst); errors.Is(err, os.ErrNotExist) {
			break
		}
		dst = filepath.Join(s.root, QuarantineDir, name+"."+strconv.Itoa(i))
	}
	if err := os.Rename(dir, dst); err != nil {
		return fmt.Errorf("store: quarantining %q: %w", name, err)
	}
	syncDir(filepath.Join(s.root, "datasets"))
	syncDir(filepath.Join(s.root, QuarantineDir))
	s.bytesStored.Add(-size)
	s.residualBytes.Add(-res)
	if hadManifest {
		s.datasetCount.Add(-1)
	}
	s.quarantined.Add(1)
	s.quarantinedBytes.Add(size)
	return nil
}

// corruptRead wraps a chunk read/decode failure in ErrCorruptDataset when
// the cause is a container-integrity failure — CRC mismatch, torn record,
// bad framing — so the serving layer can answer with a typed
// corrupt_dataset error and a replicated reader can fail over and repair
// this copy. Non-integrity failures keep their plain store wrapping.
func corruptRead(name string, err error) error {
	for _, sentinel := range []error{
		codec.ErrChecksum, codec.ErrCorrupt, codec.ErrTruncated,
		codec.ErrBadMagic, codec.ErrUnsupportedVersion, codec.ErrUnknownCodec,
	} {
		if errors.Is(err, sentinel) {
			return fmt.Errorf("%w: %q: %w", ErrCorruptDataset, name, err)
		}
	}
	return fmt.Errorf("store: dataset %q: %w", name, err)
}
