// Package store is the persistent, RQ-indexed dataset archive: a
// content-addressed, crash-safe on-disk collection of chunked RQCE
// containers, each paired with a versioned JSON manifest carrying the
// container's chunk index and the dataset's cached ratio-quality profile.
//
// The profile is what makes this more than a blob store. The paper's model
// answers "what ratio/quality would bound e give" from one cheap sampling
// pass; persisting that pass next to the artifact means admission,
// retrieval, and background recompaction decisions are all O(sample) reads
// — no re-sampling, no decompression, no compression runs. The chunk index
// (copied from the container trailer) makes element-range reads decompress
// only the chunks they cover.
//
// The profile's samples are most of its bytes and only a model question
// needs them, so they live in a sidecar beside a small manifest head: a
// stat, slice, GET or List parses the head alone, and recompaction loads
// the samples (FullManifest).
//
// On-disk layout under the store root:
//
//	datasets/<name>/data.rqz       chunked container (envelope v2)
//	datasets/<name>/residual.rqr   lossless residual layer (promoted only)
//	datasets/<name>/profile.rqp    profile samples, raw little-endian float64s
//	datasets/<name>/manifest.json  manifest head, written last
//	tmp/                           staging area, wiped at Open
//	quarantine/<name>              corrupt datasets parked by Scrub
//
// Write protocol (Commit): stage a complete dataset directory under tmp/ —
// container first, then the residual and profile samples, then the
// manifest, each written and fsynced by one stager, and container and
// residual held to the shallow verification scrub runs — and finally
// publish the whole directory into datasets/ with an atomic rename. A
// replacement first parks the committed dataset at a dot-prefixed sibling
// (".old.<name>", invisible to readers) inside datasets/; Open recovery
// restores a parked dataset whose replacement never landed and removes one
// whose replacement did. A crash at any step therefore leaves the previous
// dataset or the new one — never half of either and never neither: tmp/
// leftovers are invisible to readers and wiped on reopen, and a dataset
// directory without a parseable manifest is skipped.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"rqm/internal/codec"
	"rqm/internal/residual"
)

// Typed store errors.
var (
	// ErrNotFound marks a dataset name with no committed dataset.
	ErrNotFound = errors.New("store: dataset not found")
	// ErrBadName marks a dataset name outside the safe charset.
	ErrBadName = errors.New("store: invalid dataset name")
	// ErrBadRange marks a slice request outside the dataset's extent.
	ErrBadRange = errors.New("store: range outside dataset")
	// ErrConflict marks a Commit whose base version is no longer the
	// committed one (the dataset was re-put or deleted mid-flight).
	ErrConflict = errors.New("store: dataset changed concurrently")
	// ErrCorruptDataset marks stored bytes that fail integrity verification:
	// a chunk CRC trip on a read, a container that contradicts its manifest,
	// a hash that no longer matches. Distinct from ErrManifestCorrupt (the
	// manifest itself is unreadable) and from availability errors, so a
	// replicated reader can tell "this copy is rotten — fail over and repair
	// it" apart from "this shard is down".
	ErrCorruptDataset = errors.New("store: corrupt dataset")
	// ErrNoResidual marks an exact-read or residual access against a dataset
	// that has no residual layer (never promoted, or demoted since). The
	// lossy tier still serves; this is a tier miss, not corruption.
	ErrNoResidual = errors.New("store: dataset has no residual layer")
)

// ContainerFile, ManifestFile, ResidualFile and ProfileFile are the fixed
// file names inside a dataset directory (the residual file exists only on
// promoted datasets, the profile samples only beside a version-2 manifest
// with a profile).
const (
	ContainerFile = "data.rqz"
	ManifestFile  = "manifest.json"
	ResidualFile  = "residual.rqr"
	ProfileFile   = "profile.rqp"
)

// oldPrefix marks a displaced dataset directory awaiting replacement
// cleanup. The leading dot keeps it outside ValidateName, so readers can
// never address it; Open's recovery pass resolves any leftovers.
const oldPrefix = ".old."

// ReadFS abstracts the store's read-side file access so tests can interpose
// fault injection (see internal/faultfs). Only the read path is hooked: the
// write/publish protocol's crash safety is about rename ordering and fsync,
// which faultfs exercises by corrupting committed files instead.
type ReadFS interface {
	Open(path string) (io.ReadSeekCloser, error)
	ReadFile(path string) ([]byte, error)
}

// osFS is the real filesystem — the default ReadFS.
type osFS struct{}

func (osFS) Open(path string) (io.ReadSeekCloser, error) { return os.Open(path) }
func (osFS) ReadFile(path string) ([]byte, error)        { return os.ReadFile(path) }

// SetReadFS replaces the store's read-side filesystem hook; nil restores the
// real one. Fault-injection tests swap in an interposer before issuing
// reads; swapping is not synchronized against in-flight operations.
func (s *Store) SetReadFS(fs ReadFS) {
	if fs == nil {
		fs = osFS{}
	}
	s.fs = fs
}

// ValidateName checks a dataset name: 1..128 bytes of [A-Za-z0-9._-], not
// starting with a dot — path-safe on every platform, no traversal, no
// hidden files.
func ValidateName(name string) error {
	if name == "" || len(name) > 128 || name[0] == '.' {
		return fmt.Errorf("%w: %q", ErrBadName, name)
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
		default:
			return fmt.Errorf("%w: %q", ErrBadName, name)
		}
	}
	return nil
}

// Store is one on-disk dataset archive. Reads are lock-free (they see only
// atomically published state); writes serialize on an internal mutex, so a
// Store is safe for concurrent use by one process. Two processes must not
// share a store root.
type Store struct {
	root string
	mu   sync.Mutex // serializes Put/Delete/quarantine publishing
	fs   ReadFS     // read-side file access (SetReadFS interposes faults)

	writes     atomic.Int64 // container (re)writes committed
	chunkReads atomic.Int64 // chunks decompressed by range reads

	// bytesStored / datasetCount / residualBytes are gauges maintained
	// incrementally on Put/Delete (initialized by one scan at Open), so a
	// metrics scrape never re-reads manifests.
	bytesStored   atomic.Int64
	datasetCount  atomic.Int64
	residualBytes atomic.Int64

	// Integrity counters (see scrub.go): scrub passes completed, chunk CRC
	// verifications performed, datasets and bytes moved to quarantine/.
	scrubRuns        atomic.Int64
	chunksVerified   atomic.Int64
	quarantined      atomic.Int64
	quarantinedBytes atomic.Int64
}

// Open initializes the archive at root, creating the layout if needed,
// wiping the staging area (tmp/ holds only the debris of interrupted puts,
// which the protocol guarantees were never visible), and resolving any
// parked ".old.<name>" directory a crashed replacement left behind: if the
// replacement landed the parked copy is removed, otherwise it is restored —
// a durably committed dataset is never lost to a crash.
func Open(root string) (*Store, error) {
	if root == "" {
		return nil, errors.New("store: empty root directory")
	}
	for _, d := range []string{root, filepath.Join(root, "datasets"), filepath.Join(root, QuarantineDir)} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	tmp := filepath.Join(root, "tmp")
	if err := os.RemoveAll(tmp); err != nil {
		return nil, fmt.Errorf("store: cleaning staging area: %w", err)
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{root: root, fs: osFS{}}
	if err := s.recoverParked(); err != nil {
		return nil, err
	}
	// Initialize the size gauges with the only full scan the store performs.
	ms, err := s.List()
	if err != nil {
		return nil, err
	}
	var total, resid int64
	for _, m := range ms {
		total += s.datasetSize(m.Name)
		resid += s.residualSize(m.Name)
	}
	s.bytesStored.Store(total)
	s.datasetCount.Store(int64(len(ms)))
	s.residualBytes.Store(resid)
	return s, nil
}

// recoverParked resolves datasets a crashed replacement displaced.
func (s *Store) recoverParked() error {
	base := filepath.Join(s.root, "datasets")
	entries, err := os.ReadDir(base)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() || !strings.HasPrefix(e.Name(), oldPrefix) {
			continue
		}
		name := strings.TrimPrefix(e.Name(), oldPrefix)
		parked := filepath.Join(base, e.Name())
		if _, err := os.Stat(filepath.Join(base, name, ManifestFile)); err == nil {
			// The replacement landed; the park was just pending cleanup.
			if err := os.RemoveAll(parked); err != nil {
				return fmt.Errorf("store: clearing parked dataset: %w", err)
			}
			continue
		}
		// The replacement never published: restore the committed original.
		if err := os.Rename(parked, filepath.Join(base, name)); err != nil {
			return fmt.Errorf("store: restoring parked dataset %q: %w", name, err)
		}
	}
	return nil
}

// datasetSize is the on-disk footprint of one committed dataset.
func (s *Store) datasetSize(name string) int64 {
	var total int64
	for _, f := range []string{ContainerFile, ManifestFile, ResidualFile, ProfileFile} {
		if fi, err := os.Stat(filepath.Join(s.datasetDir(name), f)); err == nil {
			total += fi.Size()
		}
	}
	return total
}

// residualSize is the on-disk size of one dataset's residual file (0 when
// the dataset has none).
func (s *Store) residualSize(name string) int64 {
	if fi, err := os.Stat(filepath.Join(s.datasetDir(name), ResidualFile)); err == nil {
		return fi.Size()
	}
	return 0
}

// Dir returns the store root.
func (s *Store) Dir() string { return s.root }

// Writes reports the number of container writes committed since Open —
// the counter the recompaction contract is asserted against: a recompact
// whose target the model says is already met must not move it.
func (s *Store) Writes() int64 { return s.writes.Load() }

// ChunkReads reports the number of chunks served reads have decompressed
// since Open — slices, whole GETs and recompaction inputs alike (the "only
// the covered chunks" contract is asserted against it).
func (s *Store) ChunkReads() int64 { return s.chunkReads.Load() }

func (s *Store) datasetDir(name string) string {
	return filepath.Join(s.root, "datasets", name)
}

// ContainerPath returns the path of a committed dataset's container, for
// tools and benchmarks outside the serving path: every read the store
// serves opens its files itself, through its ReadFS.
func (s *Store) ContainerPath(name string) (string, error) {
	if err := ValidateName(name); err != nil {
		return "", err
	}
	p := filepath.Join(s.datasetDir(name), ContainerFile)
	if _, err := os.Stat(filepath.Join(s.datasetDir(name), ManifestFile)); err != nil {
		return "", fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return p, nil
}

// Manifest loads and validates one dataset's manifest head: everything but
// the profile's samples, which FullManifest adds.
func (s *Store) Manifest(name string) (*Manifest, error) {
	if err := ValidateName(name); err != nil {
		return nil, err
	}
	data, err := s.fs.ReadFile(filepath.Join(s.datasetDir(name), ManifestFile))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
		}
		return nil, fmt.Errorf("store: %w", err)
	}
	return ParseManifest(data)
}

// FullManifest returns the wire form of m, a head Manifest loaded:
// version 1 with the profile's samples inline, read from the dataset's
// ProfileFile and held to the size and hash the head records. It is what
// rebuilds the live profile (RQProfile) and what a replica is sent. A
// sidecar that is missing or does not match is ErrCorruptDataset, unless
// the dataset was replaced or deleted since m was read (ErrConflict).
func (s *Store) FullManifest(m *Manifest) (*Manifest, error) {
	full, err := s.readFull(m)
	if errors.Is(err, ErrCorruptDataset) {
		// The head and the sidecar are two reads: a dataset republished or
		// deleted between them is a race, not rot.
		if cerr := s.checkBase(m.Name, m); cerr != nil {
			return nil, cerr
		}
	}
	return full, err
}

// readFull reads m's profile samples sidecar and joins it to m
// (joinProfile).
func (s *Store) readFull(m *Manifest) (*Manifest, error) {
	if m.ProfileSamples == nil {
		return joinProfile(m, nil)
	}
	samples, err := s.fs.ReadFile(filepath.Join(s.datasetDir(m.Name), ProfileFile))
	if err != nil {
		return nil, samplesReadError(m.Name, err)
	}
	return joinProfile(m, samples)
}

// samplesReadError types a failed read of a dataset's profile samples: a
// missing sidecar is corruption, anything else an I/O failure.
func samplesReadError(name string, err error) error {
	if errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("%w: %q: manifest records profile samples but %s is missing",
			ErrCorruptDataset, name, ProfileFile)
	}
	return fmt.Errorf("store: %w", err)
}

// List returns the manifests of every committed dataset, sorted by name.
// Directories without a parseable manifest — interrupted puts from a
// version that staged in place, manual damage — are skipped, not fatal:
// an archive is readable to the extent it is intact.
func (s *Store) List() ([]*Manifest, error) {
	entries, err := os.ReadDir(filepath.Join(s.root, "datasets"))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var out []*Manifest
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		m, err := s.Manifest(e.Name())
		if err != nil {
			continue
		}
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// Bytes reports the committed datasets' total on-disk footprint (every
// file of ContainerFile, ManifestFile, ResidualFile and ProfileFile) and
// count. The gauges are maintained incrementally on
// Put/Delete, so this is an O(1) read — safe for a metrics scraper to poll.
func (s *Store) Bytes() (total int64, datasets int) {
	return s.bytesStored.Load(), int(s.datasetCount.Load())
}

// ResidualBytes reports the total on-disk size of residual files across
// committed datasets — the cost of the archive's promoted tier.
func (s *Store) ResidualBytes() int64 { return s.residualBytes.Load() }

// CopyStored copies a committed file of m's dataset to w verbatim, opened
// through the store's ReadFS: its container, or with residual set its
// residual file (ErrNoResidual when m records none). It fails before the
// first byte only when the file cannot be opened, so a caller that gets
// n == 0 can still answer with an error; after that a failure can only cut
// the copy short.
func (s *Store) CopyStored(w io.Writer, m *Manifest, residual bool) (n int64, err error) {
	file := ContainerFile
	if residual {
		if m.Residual == nil {
			return 0, fmt.Errorf("%w: %q", ErrNoResidual, m.Name)
		}
		file = ResidualFile
	}
	f, err := s.fs.Open(filepath.Join(s.datasetDir(m.Name), file))
	if err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	return io.Copy(w, f)
}

// ResidualBuilder stages a dataset's residual file. It runs after the
// container is fully staged — containerPath is the staged container, so the
// builder can decode the exact reconstruction the residual must invert —
// and writes the residual file bytes to w. The returned record's Backend is
// the builder's to declare; Bytes and Hash are filled by the store from the
// staged bytes, and OriginalHash from the staged file's header (each
// verified against the record when the builder pre-declares it, e.g. a
// replica transfer).
type ResidualBuilder func(containerPath string, w io.Writer) (*ResidualRecord, error)

// Put admits (or replaces) one dataset: Commit with no base and no
// residual layer.
func (s *Store) Put(name string, build func(w io.Writer) (*Manifest, error)) (*Manifest, error) {
	return s.Commit(name, nil, build, nil)
}

// PutWithResidual is Put plus a residual layer: Commit with no base.
func (s *Store) PutWithResidual(name string, build func(w io.Writer) (*Manifest, error), rb ResidualBuilder) (*Manifest, error) {
	return s.Commit(name, nil, build, rb)
}

// Commit is the store's one write entry point. build receives the staged
// container file to write; the manifest it returns is completed by the
// store (chunk index from the container trailer, sizes and hashes) and
// committed last, its profile samples to the sidecar. rb, when non-nil,
// stages the residual file after the container; without it the committed
// manifest has no residual layer, since a rewritten container invalidates
// the old residual by construction. A non-nil base makes the commit a
// compare-and-swap: ErrConflict if the dataset's (CreatedAt, Generation)
// no longer matches base, so a long rewrite can never clobber newer data or
// resurrect a deleted dataset. Every staged file passes the shallow
// verification scrub runs before the directory publishes with one rename,
// so a crash mid-commit leaves the previous state. The returned manifest is
// the committed one in its wire form, as FullManifest would load it.
func (s *Store) Commit(name string, base *Manifest, build func(w io.Writer) (*Manifest, error), rb ResidualBuilder) (*Manifest, error) {
	if err := ValidateName(name); err != nil {
		return nil, err
	}
	// Fast-fail an already-stale compare-and-swap before paying for the
	// build; the authoritative check repeats under the publish lock.
	if base != nil {
		if err := s.checkBase(name, base); err != nil {
			return nil, err
		}
	}
	stage, err := os.MkdirTemp(filepath.Join(s.root, "tmp"), name+".")
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	defer os.RemoveAll(stage) // no-op after a successful publish

	m, err := s.stageDataset(stage, name, build, rb)
	if err != nil {
		return nil, err
	}

	// Publish: one atomic rename into datasets/. Replacing an existing
	// dataset parks the old directory at a dot-prefixed sibling first
	// (rename over a non-empty directory fails) — inside datasets/, NOT
	// tmp/, so a crash between the two renames leaves the committed copy
	// where Open's recovery pass restores it instead of wiping it. The gap
	// is the only window in which the dataset is briefly absent — never
	// half-written, never lost.
	s.mu.Lock()
	defer s.mu.Unlock()
	if base != nil {
		if err := s.checkBase(name, base); err != nil {
			return nil, err
		}
	}
	dst := s.datasetDir(name)
	old := filepath.Join(s.root, "datasets", oldPrefix+name)
	var oldSize, oldRes int64
	replaced := false
	if _, err := os.Stat(dst); err == nil {
		replaced = true
		oldSize = s.datasetSize(name)
		oldRes = s.residualSize(name)
		_ = os.RemoveAll(old) // a same-name leftover would block the rename
		if err := os.Rename(dst, old); err != nil {
			return nil, fmt.Errorf("store: displacing old dataset: %w", err)
		}
	}
	if err := os.Rename(stage, dst); err != nil {
		if replaced {
			_ = os.Rename(old, dst) // best-effort restore
		}
		return nil, fmt.Errorf("store: publishing dataset: %w", err)
	}
	if replaced {
		_ = os.RemoveAll(old)
	}
	syncDir(filepath.Dir(dst))
	s.writes.Add(1)
	s.bytesStored.Add(s.datasetSize(name) - oldSize)
	s.residualBytes.Add(s.residualSize(name) - oldRes)
	if !replaced {
		s.datasetCount.Add(1)
	}
	return m, nil
}

// checkBase verifies the committed dataset is still the version base
// describes ((CreatedAt, Generation) identity).
func (s *Store) checkBase(name string, base *Manifest) error {
	cur, err := s.Manifest(name)
	if err != nil || !cur.CreatedAt.Equal(base.CreatedAt) || cur.Generation != base.Generation {
		return fmt.Errorf("%w: %q", ErrConflict, name)
	}
	return nil
}

// stageDataset writes container, optional residual, profile samples and
// manifest into the staging directory (in that order — the manifest is the
// commit record), each through stageFile.
func (s *Store) stageDataset(stage, name string, build func(w io.Writer) (*Manifest, error), rb ResidualBuilder) (*Manifest, error) {
	// The container's digest becomes the manifest's ContainerHash (the
	// deep-scrub reference), and when the incoming manifest already carries
	// one — a replica transfer — the staged bytes must reproduce it, an
	// end-to-end check that a copy arrived intact.
	cpath := filepath.Join(stage, ContainerFile)
	var m *Manifest
	size, sum, err := stageFile(cpath, func(w io.Writer) (err error) {
		m, err = build(w)
		return err
	})
	if err != nil {
		return nil, err
	}
	if m == nil {
		return nil, errors.New("store: build returned no manifest")
	}

	// Verify the staged container with the routine scrub and the GET pre-pass
	// run on committed ones — index tiling, every record against its entry,
	// every payload CRC — so nothing that would fail verification is ever
	// published, and complete the manifest from the index that pass admitted:
	// the trailer is the ground truth for the chunk records.
	idx, _, err := s.verifyContainer(name, cpath, nil, false)
	if err != nil {
		return nil, err
	}
	m.Name = name
	m.Chunks = chunkRecords(idx.Entries)
	m.TotalValues = idx.TotalValues
	m.ChunkValues = idx.Header.ChunkValues
	m.ContainerBytes = size
	if m.ContainerHash != "" && m.ContainerHash != sum {
		return nil, fmt.Errorf("%w: %q: staged container hashes to %s, manifest declares %s",
			ErrCorruptDataset, name, sum, m.ContainerHash)
	}
	m.ContainerHash = sum
	if m.OriginalBytes > 0 {
		m.Ratio = float64(m.OriginalBytes) / float64(m.ContainerBytes)
	}

	// Stage the residual layer, when the caller supplies one. Without a
	// builder the manifest must not claim a residual either: a build that
	// copies an old manifest forward cannot commit a record whose file was
	// never staged.
	m.Residual = nil
	if rb != nil {
		if err := s.stageResidual(stage, cpath, m, rb); err != nil {
			return nil, err
		}
	}

	head, samples, err := splitProfile(m)
	if err != nil {
		return nil, err
	}
	if samples != nil {
		if _, _, err := stageFile(filepath.Join(stage, ProfileFile), writeBytes(samples)); err != nil {
			return nil, err
		}
	}
	data, err := json.MarshalIndent(head, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("store: encoding manifest: %w", err)
	}
	if _, err := ParseManifest(data); err != nil {
		return nil, fmt.Errorf("store: refusing to commit: %w", err)
	}
	if _, _, err := stageFile(filepath.Join(stage, ManifestFile), writeBytes(data)); err != nil {
		return nil, err
	}
	syncDir(stage)
	m.Version, m.ProfileSamples = WireVersion, nil
	return m, nil
}

// stageFile is the one way a dataset file is written: it creates path,
// streams write's output into it through SHA-256, fsyncs and closes it, and
// returns the size and hex digest of what it holds. write's own errors come
// back as they are.
func stageFile(path string, write func(w io.Writer) error) (size int64, sum string, err error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, "", fmt.Errorf("store: %w", err)
	}
	h := sha256.New()
	if err := write(io.MultiWriter(f, h)); err != nil {
		f.Close()
		return 0, "", err
	}
	size, err = f.Seek(0, io.SeekCurrent)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, "", fmt.Errorf("store: %w", err)
	}
	return size, hex.EncodeToString(h.Sum(nil)), nil
}

// writeBytes is the stageFile write of bytes held in memory.
func writeBytes(data []byte) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	}
}

// Delete removes a dataset. The manifest goes first — the commit record, so
// a crash mid-delete leaves an invisible directory, not a half dataset —
// then the directory, and datasets/ is fsynced so the removal is durable
// before Delete returns.
func (s *Store) Delete(name string) error {
	if err := ValidateName(name); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	dir := s.datasetDir(name)
	if _, err := os.Stat(filepath.Join(dir, ManifestFile)); err != nil {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	size := s.datasetSize(name)
	res := s.residualSize(name)
	if err := os.Remove(filepath.Join(dir, ManifestFile)); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := os.RemoveAll(dir); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	syncDir(filepath.Dir(dir))
	s.bytesStored.Add(-size)
	s.residualBytes.Add(-res)
	s.datasetCount.Add(-1)
	return nil
}

// ReadRangeWith decompresses elements [off, off+n) of the dataset that the
// loaded manifest m describes, sparing the hot random-access path a second
// manifest parse. m's chunk index maps the range to chunk records; each
// needed chunk is read at its offset, CRC-verified, and decoded; everything
// else stays untouched on disk.
func (s *Store) ReadRangeWith(m *Manifest, off, n int64) ([]float64, error) {
	return s.readRange(m, off, n, false, nil)
}

// readRange is ReadRangeWith, ReadRangeExact and a lossy ReadValues: the
// values walkRange delivers for the range, appended in order to dst[:0].
func (s *Store) readRange(m *Manifest, off, n int64, exact bool, dst []float64) (out []float64, err error) {
	out = dst[:0]
	_, err = s.walkRange(m, off, n, exact, &s.chunkReads, func(vals []float64) {
		if len(out) == 0 {
			out = slices.Grow(out, int(n)) // walkRange admitted n
		}
		out = append(out, vals...)
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// walkRange is the one covering-chunk walk behind every read of values.
// With exact set, each decoded chunk has its residual block applied, turning
// the lossy reconstruction into the original bit pattern (ErrNoResidual
// without a residual layer). fn gets each chunk's part of [off, off+n) once
// the range is admitted, valid until fn returns. Each chunk it delivers is
// counted in reads: ChunkReads for a served read. It returns the
// container's stream header.
func (s *Store) walkRange(m *Manifest, off, n int64, exact bool, reads *atomic.Int64, fn func(vals []float64)) (*codec.StreamHeader, error) {
	name := m.Name
	if exact && m.Residual == nil {
		return nil, fmt.Errorf("%w: %q", ErrNoResidual, name)
	}
	// The subtraction form cannot overflow (off < TotalValues is implied).
	if off < 0 || n <= 0 || off > m.TotalValues || n > m.TotalValues-off {
		return nil, fmt.Errorf("%w: [%d, %d) of %d values", ErrBadRange, off, off+n, m.TotalValues)
	}
	f, err := s.fs.Open(filepath.Join(s.datasetDir(name), ContainerFile))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	// The manifest's index says where the chunks lie, not which format they
	// are in: the stream header does, so a container this build cannot read
	// is refused before its first chunk is decoded as if it could.
	recs, err := codec.OpenChunked(f)
	if err != nil {
		return nil, corruptRead(name, err)
	}
	var rf io.ReadSeekCloser
	var ridx *residual.Index
	if exact {
		if rf, ridx, err = s.openResidual(s.datasetDir(name), m); err != nil {
			return nil, err
		}
		defer rf.Close()
	}

	// The covering chunks [lo, hi); start is the first element of chunk lo.
	entries := m.IndexEntries()
	lo, hi := 0, 0
	var start, end int64
	for ; hi < len(entries) && end < off+n; hi++ {
		if end += int64(entries[hi].Values); end <= off {
			lo, start = hi+1, end
		}
	}
	return &recs.Header, eachChunk(name, f, entries, lo, hi, true, func(i int, vals []float64) error {
		if exact {
			// openResidual held every block to its chunk's value count, and
			// DecodeChunkAt len(vals) to the entry's.
			if err := residual.ApplyBlock(rf, ridx.Header, ridx.Blocks[i], vals); err != nil {
				return corruptResidual(name, err)
			}
		}
		reads.Add(1)
		// DecodeChunkAt holds len(vals) to the entry's count, so the slice
		// below is in range whatever the container claims.
		fn(vals[max(off-start, 0):min(off+n-start, int64(len(vals)))])
		start += int64(len(vals))
		return nil
	})
}

// eachChunk is the store's one index-driven chunk read: each of chunks
// [lo, hi) is re-framed at its entry (CRC verified, head held against the
// entry) over a pooled payload buffer and, with decode set, decompressed
// into a pooled chunk buffer. fn receives its position and values (nil
// without decode), which are only valid until fn returns. Read and decode
// failures come back typed through corruptRead, fn's own errors untouched.
func eachChunk(name string, rs io.ReadSeeker, entries []codec.IndexEntry, lo, hi int, decode bool, fn func(i int, vals []float64) error) error {
	var pooled *[]float64
	if decode {
		pooled = codec.GetValues()
		defer codec.PutValues(pooled)
	}
	for i := lo; i < hi; i++ {
		var vals []float64
		var err error
		if !decode {
			err = codec.VerifyChunkAt(rs, entries[i])
		} else if vals, err = codec.DecodeChunkAt(rs, entries[i], *pooled); err == nil {
			*pooled = vals // keeps a buffer the chunk outgrew
		}
		if err != nil {
			return corruptRead(name, err)
		}
		if err := fn(i, vals); err != nil {
			return err
		}
	}
	return nil
}

// syncDir fsyncs a directory (best effort; not all platforms support it).
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
}
