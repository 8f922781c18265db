package store

import (
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"rqm/internal/codec"
	"rqm/internal/compressor"
	"rqm/internal/core"
	"rqm/internal/grid"
	"rqm/internal/partition"
	"rqm/internal/predictor"
	"rqm/internal/residual"
)

// Manifest schema versions. A store writes ManifestVersion: a head whose
// profile samples live in the dataset's ProfileFile sidecar. WireVersion
// carries them inline; it is what every manifest said before the sidecar
// existed, and it stays the form a manifest travels in between shards
// (?manifest=1&full=1 and the raw-put frame), so shards on either side of
// the split replicate to each other. Readers accept exactly these two;
// anything else is ErrManifestVersion, so a future schema change cannot be
// silently misread as today's.
const (
	ManifestVersion = 2
	WireVersion     = 1
)

// Typed manifest errors. ParseManifest failures wrap exactly one of these —
// never a bare json error and never a panic — so callers (and the service's
// error envelope) can match them.
var (
	// ErrManifestCorrupt marks a manifest that is not valid JSON or whose
	// fields are internally inconsistent.
	ErrManifestCorrupt = errors.New("store: corrupt manifest")
	// ErrManifestVersion marks a manifest with an unsupported schema version.
	ErrManifestVersion = errors.New("store: unsupported manifest version")
)

// ChunkRecord locates one chunk of the dataset's container, copied from the
// container's trailer index at commit time so range reads can plan chunk
// access without touching the container at all.
type ChunkRecord struct {
	// Offset is the chunk record's byte offset from the container start.
	Offset int64 `json:"offset"`
	// Values is the chunk's decoded sample count.
	Values int `json:"values"`
	// RecordBytes is the full record length including tag and payload.
	RecordBytes int `json:"record_bytes"`
	// AbsBound is the absolute error bound the chunk was compressed with.
	AbsBound float64 `json:"abs_bound"`
}

// ProfileRecord is the dataset's cached ratio-quality profile. Its fields —
// which ones define a profile, and how they read back — belong to core.
type ProfileRecord = core.ProfileRecord

// ResidualRecord describes a dataset's optional lossless residual layer:
// the entropy-coded XOR of the original against the lossy reconstruction,
// stored beside the container (see internal/residual). Its presence is what
// makes a dataset "promoted": exact reads are served by decoding the base
// and applying the residual, and recompaction can re-encode from the true
// original instead of the accumulated-error reconstruction.
type ResidualRecord struct {
	// Backend names the entropy backend the residual was coded with.
	Backend string `json:"backend"`
	// Bytes is the residual file's on-disk size.
	Bytes int64 `json:"bytes"`
	// Hash is the SHA-256 of the residual file's bytes, stamped by the
	// store at commit time — the deep-scrub reference for the residual.
	Hash string `json:"hash"`
	// OriginalHash is the SHA-256 of the exact original payload bytes
	// (little-endian floats at the storage width, no header). Every exact
	// read is verified against it before serving.
	OriginalHash string `json:"original_hash"`
}

// Manifest is one dataset's on-disk metadata: identity, shape, the applied
// compression setting, the container's chunk index, and the cached
// ratio-quality profile. It is written via temp-file + atomic rename after
// the container, so a parseable manifest implies a fully written dataset.
type Manifest struct {
	// Version is the manifest schema version (ManifestVersion).
	Version int `json:"version"`
	// Name is the dataset name (store-unique, path-safe).
	Name string `json:"name"`
	// CreatedAt is the put's stamp (Store.Stamp); with Generation, the version.
	CreatedAt time.Time `json:"created_at"`
	// Generation counts container rewrites (0 = original put; each
	// recompaction increments it).
	Generation int `json:"generation"`
	// PrecBits is the original storage width per value (32 or 64).
	PrecBits int `json:"prec_bits"`
	// Dims is the logical field shape.
	Dims []int `json:"dims"`
	// Codec names the backend that produced the container.
	Codec string `json:"codec"`
	// Predictor names the prediction scheme, when the codec has one.
	Predictor string `json:"predictor,omitempty"`
	// Mode and ErrorBound record the applied error-bound setting
	// ("abs"/"rel" semantics; recompacted datasets are always "abs").
	Mode       string  `json:"mode"`
	ErrorBound float64 `json:"error_bound"`
	// Lossless names the optional lossless stage ("" or "none" = off), so a
	// recompaction rewrites through the same pipeline configuration.
	Lossless string `json:"lossless,omitempty"`
	// ChunkValues is the container's nominal chunk size in values (copied
	// from the stream header at commit), so a recompaction rewrites with the
	// same read granularity the dataset was tuned for.
	ChunkValues int `json:"chunk_values,omitempty"`
	// Partitioner names the chunk-planning strategy the container was last
	// written with ("" = fixed slabs). Partitioners are deterministic, so a
	// recompaction resolves this name and reproduces the same variance-guided
	// geometry decisions over the rewritten data.
	Partitioner string `json:"partitioner,omitempty"`
	// ContentHash is the SHA-256 of the original (uncompressed) field bytes
	// — the content address the profile cache keys generalize into an index.
	// It identifies what the dataset IS; it cannot be recomputed from the
	// lossy container, so it is an identity, not an integrity check.
	ContentHash string `json:"content_hash"`
	// ContainerHash is the SHA-256 of the container file's bytes, stamped by
	// the store at commit time. It is the deep-scrub reference: a flipped
	// byte anywhere in the stored container — stream header, chunk payloads,
	// trailer, footer — changes it, including the spans per-chunk CRCs do
	// not cover. Empty on manifests committed before the field existed.
	ContainerHash string `json:"container_hash,omitempty"`
	// TotalValues is the dataset's sample count.
	TotalValues int64 `json:"total_values"`
	// OriginalBytes and ContainerBytes give the achieved Ratio.
	OriginalBytes  int64   `json:"original_bytes"`
	ContainerBytes int64   `json:"container_bytes"`
	Ratio          float64 `json:"ratio"`
	// EstPSNR is the model-estimated PSNR at the applied bound (0 when the
	// model has no finite estimate, e.g. constant fields).
	EstPSNR float64 `json:"est_psnr,omitempty"`
	// Chunks is the container's trailer index, copied at commit time.
	Chunks []ChunkRecord `json:"chunks"`
	// Profile is the cached ratio-quality profile (nil only for datasets
	// stored without one). On a version-2 head it holds every field but the
	// samples (Errors is empty): Store.FullManifest loads them.
	Profile *ProfileRecord `json:"profile,omitempty"`
	// ProfileSamples describes the sidecar holding Profile's samples
	// (version 2 only).
	ProfileSamples *SamplesRecord `json:"profile_samples,omitempty"`
	// Residual describes the optional lossless residual layer (nil for
	// lossy-only datasets).
	Residual *ResidualRecord `json:"residual,omitempty"`
}

// SamplesRecord describes a dataset's profile samples sidecar (ProfileFile):
// the profile's sampled errors as raw little-endian float64s in sampling
// order — the bytes core's errors_b64 encodes — so every estimate answers
// bit-identically to the inline form.
type SamplesRecord struct {
	// Bytes is the sidecar's size: 8 per sample.
	Bytes int64 `json:"bytes"`
	// Hash is the SHA-256 of the sidecar's bytes.
	Hash string `json:"hash"`
}

// isSHA256Hex reports whether s is a lowercase hex SHA-256 digest — the
// only form the store and service ever write, so anything else in a hash
// field is damage, not style.
func isSHA256Hex(s string) bool {
	if len(s) != 64 {
		return false
	}
	for _, r := range s {
		if (r < '0' || r > '9') && (r < 'a' || r > 'f') {
			return false
		}
	}
	return true
}

// corruptf builds an ErrManifestCorrupt with detail.
func corruptf(format string, args ...interface{}) error {
	return fmt.Errorf("%w: "+format, append([]interface{}{ErrManifestCorrupt}, args...)...)
}

// ParseManifest decodes and validates a manifest. Malformed input —
// truncated JSON, wrong version, inconsistent fields, undecodable profile —
// yields a typed error (ErrManifestCorrupt / ErrManifestVersion), never a
// panic.
func ParseManifest(data []byte) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, corruptf("%v", err)
	}
	if m.Version != ManifestVersion && m.Version != WireVersion {
		return nil, fmt.Errorf("%w: version %d, want %d or %d", ErrManifestVersion, m.Version, WireVersion, ManifestVersion)
	}
	if err := ValidateName(m.Name); err != nil {
		return nil, corruptf("name: %v", err)
	}
	if m.PrecBits != 32 && m.PrecBits != 64 {
		return nil, corruptf("precision %d bits, want 32 or 64", m.PrecBits)
	}
	if len(m.Dims) == 0 || len(m.Dims) > 4 {
		return nil, corruptf("rank %d outside 1..4", len(m.Dims))
	}
	shape := int64(1)
	for _, d := range m.Dims {
		if d <= 0 {
			return nil, corruptf("dimension %d", d)
		}
		shape *= int64(d)
	}
	if m.TotalValues <= 0 || m.TotalValues != shape {
		return nil, corruptf("total_values %d, shape %v implies %d", m.TotalValues, m.Dims, shape)
	}
	if m.Generation < 0 {
		return nil, corruptf("generation %d", m.Generation)
	}
	if m.ChunkValues < 0 {
		return nil, corruptf("chunk size %d values", m.ChunkValues)
	}
	if !partition.Known(m.Partitioner) {
		return nil, corruptf("unknown partitioner %q", m.Partitioner)
	}
	// The pipeline names a recompaction rebuilds the engine from. Predictor
	// and lossless are omitempty ("" = the codec's default / off); mode is
	// always written.
	if m.Predictor != "" {
		if _, err := predictor.ParseKind(m.Predictor); err != nil {
			return nil, corruptf("predictor: %v", err)
		}
	}
	if m.Lossless != "" {
		if _, err := compressor.ParseLosslessKind(m.Lossless); err != nil {
			return nil, corruptf("lossless: %v", err)
		}
	}
	if m.Mode != "abs" && m.Mode != "rel" {
		return nil, corruptf("mode %q, want abs or rel", m.Mode)
	}
	if m.ContainerBytes <= 0 || m.OriginalBytes <= 0 {
		return nil, corruptf("container %d / original %d bytes", m.ContainerBytes, m.OriginalBytes)
	}
	if m.ContentHash != "" && !isSHA256Hex(m.ContentHash) {
		return nil, corruptf("content_hash %q is not a SHA-256 hex digest", m.ContentHash)
	}
	if m.ContainerHash != "" && !isSHA256Hex(m.ContainerHash) {
		return nil, corruptf("container_hash %q is not a SHA-256 hex digest", m.ContainerHash)
	}
	if len(m.Chunks) == 0 {
		return nil, corruptf("no chunk index")
	}
	var indexed int64
	for i, c := range m.Chunks {
		if c.Values <= 0 || c.RecordBytes <= 0 || c.Offset < 0 || c.Offset >= m.ContainerBytes {
			return nil, corruptf("chunk %d: offset %d, %d values, %d bytes", i, c.Offset, c.Values, c.RecordBytes)
		}
		indexed += int64(c.Values)
	}
	if indexed != m.TotalValues {
		return nil, corruptf("chunk index covers %d values, dataset holds %d", indexed, m.TotalValues)
	}
	if m.Residual != nil {
		if !residual.Known(m.Residual.Backend) {
			return nil, corruptf("unknown residual backend %q", m.Residual.Backend)
		}
		if m.Residual.Bytes <= 0 {
			return nil, corruptf("residual of %d bytes", m.Residual.Bytes)
		}
		if !isSHA256Hex(m.Residual.Hash) {
			return nil, corruptf("residual hash %q is not a SHA-256 hex digest", m.Residual.Hash)
		}
		if !isSHA256Hex(m.Residual.OriginalHash) {
			return nil, corruptf("residual original_hash %q is not a SHA-256 hex digest", m.Residual.OriginalHash)
		}
	}
	if err := checkProfile(&m); err != nil {
		return nil, err
	}
	return &m, nil
}

// checkProfile validates a parsed manifest's profile in the form its
// version stores it: samples inline (version 1), or a head plus the
// sidecar's size and hash (version 2).
func checkProfile(m *Manifest) error {
	switch {
	case m.Profile == nil:
		if m.ProfileSamples != nil {
			return corruptf("profile samples recorded without a profile")
		}
		return nil
	case m.Version == WireVersion:
		if m.ProfileSamples != nil {
			return corruptf("version %d manifest records a profile samples sidecar", m.Version)
		}
		if err := m.Profile.Validate(); err != nil {
			return corruptf("%v", err)
		}
		return nil
	}
	rec := m.ProfileSamples
	if rec == nil {
		return corruptf("profile without a samples record")
	}
	if rec.Bytes <= 0 || rec.Bytes%8 != 0 {
		return corruptf("profile samples of %d bytes", rec.Bytes)
	}
	if !isSHA256Hex(rec.Hash) {
		return corruptf("profile samples hash %q is not a SHA-256 hex digest", rec.Hash)
	}
	if err := m.Profile.ValidateHead(); err != nil {
		return corruptf("%v", err)
	}
	return nil
}

// splitProfile returns the version-2 head to commit for m and the bytes of
// its samples sidecar (nil when m has no profile). m's profile must carry
// its samples and pass Validate, or the commit is refused
// (ErrManifestCorrupt), as it was when the samples were committed inline.
func splitProfile(m *Manifest) (*Manifest, []byte, error) {
	head := *m
	head.Version = ManifestVersion
	head.ProfileSamples = nil
	if m.Profile == nil {
		return &head, nil, nil
	}
	if err := m.Profile.Validate(); err != nil {
		return nil, nil, fmt.Errorf("store: refusing to commit: %w", corruptf("%v", err))
	}
	samples, _ := base64.StdEncoding.DecodeString(m.Profile.Errors) // Validate decoded it
	pr := *m.Profile
	pr.Errors = ""
	head.Profile = &pr
	sum := sha256.Sum256(samples)
	head.ProfileSamples = &SamplesRecord{Bytes: int64(len(samples)), Hash: hex.EncodeToString(sum[:])}
	return &head, samples, nil
}

// committedHead is a manifest head as Commit writes it: Manifest's fields
// in their order, created_at with all nine fractional digits, so that its
// width does not hang on the stamp's trailing zeros. Parsing takes it as
// any RFC 3339 stamp.
type committedHead struct {
	Version   int    `json:"version"`
	Name      string `json:"name"`
	CreatedAt string `json:"created_at"`
	*Manifest
}

// joinProfile returns the wire form of head: version 1, with samples — the
// sidecar's bytes, held to the size and hash head records — inline in the
// profile. A version-1 manifest already is its wire form and ignores
// samples. A sidecar that does not match is ErrCorruptDataset.
func joinProfile(head *Manifest, samples []byte) (*Manifest, error) {
	full := *head
	full.Version = WireVersion
	full.ProfileSamples = nil
	rec := head.ProfileSamples
	if rec == nil {
		return &full, nil
	}
	if int64(len(samples)) != rec.Bytes {
		return nil, fmt.Errorf("%w: %q: %s is %d bytes, manifest records %d",
			ErrCorruptDataset, head.Name, ProfileFile, len(samples), rec.Bytes)
	}
	if sum := sha256.Sum256(samples); hex.EncodeToString(sum[:]) != rec.Hash {
		return nil, fmt.Errorf("%w: %q: %s hashes to %x, manifest records %s",
			ErrCorruptDataset, head.Name, ProfileFile, sum, rec.Hash)
	}
	pr := *head.Profile
	pr.Errors = base64.StdEncoding.EncodeToString(samples)
	if err := pr.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %q: %s: %v", ErrCorruptDataset, head.Name, ProfileFile, err)
	}
	full.Profile = &pr
	return &full, nil
}

// NewProfileRecord serializes a live profile for the manifest.
func NewProfileRecord(p *core.Profile) *ProfileRecord { return p.Record() }

// RQProfile rebuilds the live ratio-quality profile from the cached record —
// the store's O(sample) answer machine, reconstructed without touching the
// container or the original data. The record must carry its samples: a
// manifest from Store.Manifest gets them from Store.FullManifest.
func (m *Manifest) RQProfile() (*core.Profile, error) {
	if m.Profile == nil {
		return nil, corruptf("dataset %q has no cached profile", m.Name)
	}
	if m.Profile.Errors == "" {
		return nil, fmt.Errorf("store: dataset %q: profile samples not loaded", m.Name)
	}
	p, err := core.ProfileFromRecord(m.Profile)
	if err != nil {
		return nil, corruptf("%v", err)
	}
	return p, nil
}

// Prec returns the manifest's precision as a grid constant.
func (m *Manifest) Prec() grid.Precision { return grid.Precision(m.PrecBits) }

// IndexEntries converts the manifest's chunk records to container index
// entries for codec.ReadChunkAt (the two types differ only in their JSON
// tags).
func (m *Manifest) IndexEntries() []codec.IndexEntry {
	out := make([]codec.IndexEntry, len(m.Chunks))
	for i, c := range m.Chunks {
		out[i] = codec.IndexEntry(c)
	}
	return out
}

// chunkRecords converts container index entries to manifest chunk records.
func chunkRecords(entries []codec.IndexEntry) []ChunkRecord {
	out := make([]ChunkRecord, len(entries))
	for i, e := range entries {
		out[i] = ChunkRecord(e)
	}
	return out
}
