// Residual-layer store support: staging and commit-time validation of the
// residual file, the exact (bit-lossless) range read path, and the builder
// that synthesizes a residual from an original against a staged container.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"rqm/internal/codec"
	"rqm/internal/grid"
	"rqm/internal/residual"
)

// stageResidual writes the residual file into the staging directory, tees
// it through SHA-256, and validates the staged bytes against both the
// builder's declared record (a replica transfer must arrive intact) and the
// manifest's chunk geometry (blocks must align one-to-one with chunks) —
// the same refuse-to-commit discipline the container gets.
func (s *Store) stageResidual(stage, name, cpath string, m *Manifest, rb ResidualBuilder) (*ResidualRecord, error) {
	rpath := filepath.Join(stage, ResidualFile)
	rf, err := os.Create(rpath)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	hasher := sha256.New()
	rec, err := rb(cpath, io.MultiWriter(rf, hasher))
	if err == nil {
		err = rf.Sync()
	}
	if cerr := rf.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	if rec == nil {
		return nil, errors.New("store: residual builder returned no record")
	}
	fi, err := os.Stat(rpath)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	sum := hex.EncodeToString(hasher.Sum(nil))
	if rec.Hash != "" && rec.Hash != sum {
		return nil, fmt.Errorf("%w: %q: staged residual hashes to %s, record declares %s",
			ErrCorruptDataset, name, sum, rec.Hash)
	}
	if rec.Bytes > 0 && rec.Bytes != fi.Size() {
		return nil, fmt.Errorf("%w: %q: staged residual is %d bytes, record declares %d",
			ErrCorruptDataset, name, fi.Size(), rec.Bytes)
	}
	out := &ResidualRecord{
		Backend:      rec.Backend,
		Bytes:        fi.Size(),
		Hash:         sum,
		OriginalHash: rec.OriginalHash,
	}

	// Structural check of what was just written: parseable, right backend,
	// and block-for-chunk aligned with the manifest.
	f, err := os.Open(rpath)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	idx, err := residual.LoadIndex(f)
	if err != nil {
		return nil, corruptResidual(name, err)
	}
	if out.OriginalHash == "" {
		out.OriginalHash = hex.EncodeToString(idx.Header.OriginalHash[:])
	}
	if err := checkResidualIndex(name, m, out, idx); err != nil {
		return nil, err
	}
	return out, nil
}

// checkResidualIndex cross-checks a residual index against the manifest it
// is about to be (or is) committed with.
func checkResidualIndex(name string, m *Manifest, rec *ResidualRecord, idx *residual.Index) error {
	c, err := residual.ByName(rec.Backend)
	if err != nil {
		return corruptResidual(name, err)
	}
	if idx.Header.BackendID != c.ID() {
		return fmt.Errorf("%w: %q: residual coded with backend id %d, record names %q",
			ErrCorruptDataset, name, idx.Header.BackendID, rec.Backend)
	}
	if idx.Header.Width*8 != m.PrecBits {
		return fmt.Errorf("%w: %q: residual width %d bytes for %d-bit data",
			ErrCorruptDataset, name, idx.Header.Width, m.PrecBits)
	}
	if idx.Header.ElemCount != m.TotalValues {
		return fmt.Errorf("%w: %q: residual covers %d values, dataset holds %d",
			ErrCorruptDataset, name, idx.Header.ElemCount, m.TotalValues)
	}
	if hh := hex.EncodeToString(idx.Header.OriginalHash[:]); hh != rec.OriginalHash {
		return fmt.Errorf("%w: %q: residual header original hash %s, record declares %s",
			ErrCorruptDataset, name, hh, rec.OriginalHash)
	}
	if len(idx.Blocks) != len(m.Chunks) {
		return fmt.Errorf("%w: %q: residual holds %d blocks, container holds %d chunks",
			ErrCorruptDataset, name, len(idx.Blocks), len(m.Chunks))
	}
	for i, b := range idx.Blocks {
		if b.Values != m.Chunks[i].Values {
			return fmt.Errorf("%w: %q: residual block %d covers %d values, chunk covers %d",
				ErrCorruptDataset, name, i, b.Values, m.Chunks[i].Values)
		}
	}
	return nil
}

// BuildResidual synthesizes a residual layer: it decodes the (staged or
// committed) container at containerPath to obtain the exact lossy
// reconstruction — what the decoder produces, never the compressor's working
// array — computes the XOR residual against orig, and writes the framed
// residual file to w, blocked to the container's chunk geometry. The
// returned record declares the backend; the store fills Bytes and Hash at
// staging and takes OriginalHash from the file header, so the digest Encode
// stamped — the original is hashed once per put — is the one the manifest
// declares. Shaped as a ResidualBuilder factory so callers pass
// BuildResidual(orig, prec, backend) straight to PutWithResidual /
// ReplaceWithResidual.
func BuildResidual(orig []float64, prec grid.Precision, backend string) ResidualBuilder {
	return func(containerPath string, w io.Writer) (*ResidualRecord, error) {
		c, err := residual.ByName(backend)
		if err != nil {
			return nil, err
		}
		f, err := os.Open(containerPath)
		if err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		defer f.Close()
		idx, err := codec.LoadIndex(f)
		if err != nil {
			return nil, fmt.Errorf("store: residual base: %w", err)
		}
		if idx.TotalValues != int64(len(orig)) {
			return nil, fmt.Errorf("store: residual base holds %d values, original holds %d",
				idx.TotalValues, len(orig))
		}
		recon := make([]float64, 0, idx.TotalValues)
		blocks := make([]int, len(idx.Entries))
		err = eachChunk(containerPath, f, idx.Entries, 0, len(idx.Entries), true, func(i int, vals []float64) error {
			blocks[i] = len(vals)
			recon = append(recon, vals...)
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("store: residual base: %w", err)
		}
		if _, err := residual.Encode(w, c, prec, orig, recon, blocks); err != nil {
			return nil, err
		}
		return &ResidualRecord{Backend: backend}, nil
	}
}

// CopyResidual is the replica-transfer ResidualBuilder: it streams exactly
// declared.Bytes from r into the staged residual file and re-declares the
// source's record, so the store's staging checks prove the copy arrived
// byte-identical (hash and size must reproduce).
func CopyResidual(r io.Reader, declared *ResidualRecord) ResidualBuilder {
	return func(_ string, w io.Writer) (*ResidualRecord, error) {
		if declared == nil {
			return nil, errors.New("store: CopyResidual needs the declared record")
		}
		if _, err := io.CopyN(w, r, declared.Bytes); err != nil {
			return nil, fmt.Errorf("store: copying residual: %w", err)
		}
		rec := *declared
		return &rec, nil
	}
}

// ReadRangeExact is ReadRangeWith at the lossless tier: it decodes the
// chunks covering [off, off+n), applies each chunk's residual block, and
// returns bit-exact original values. Only the covering chunks and blocks
// are read. ErrNoResidual when the dataset has no residual layer.
func (s *Store) ReadRangeExact(m *Manifest, off, n int64) ([]float64, error) {
	if m.Residual == nil {
		return nil, fmt.Errorf("%w: %q", ErrNoResidual, m.Name)
	}
	return s.readRange(m, off, n, true)
}

// openResidual opens m's residual file and loads its block index, checked
// against the container's layout. The caller closes the file.
func (s *Store) openResidual(m *Manifest) (io.ReadSeekCloser, *residual.Index, error) {
	rf, err := s.fs.Open(filepath.Join(s.datasetDir(m.Name), ResidualFile))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil, fmt.Errorf("%w: %q: manifest records a residual but the file is missing",
				ErrCorruptDataset, m.Name)
		}
		return nil, nil, fmt.Errorf("store: %w", err)
	}
	idx, err := residual.LoadIndex(rf)
	if err != nil {
		err = corruptResidual(m.Name, err)
	} else if len(idx.Blocks) != len(m.Chunks) || idx.Header.Width*8 != m.PrecBits {
		err = fmt.Errorf("%w: %q: residual layout does not match the container", ErrCorruptDataset, m.Name)
	}
	if err != nil {
		rf.Close()
		return nil, nil, err
	}
	return rf, idx, nil
}

// applyResidual XORs residual block i into the decoded values of chunk i.
func applyResidual(m *Manifest, rf io.ReadSeeker, idx *residual.Index, i int, vals []float64) error {
	if idx.Blocks[i].Values != len(vals) {
		return fmt.Errorf("%w: %q: residual block %d covers %d values, chunk decodes %d",
			ErrCorruptDataset, m.Name, i, idx.Blocks[i].Values, len(vals))
	}
	if err := residual.ApplyBlock(rf, idx.Header, idx.Blocks[i], vals); err != nil {
		return corruptResidual(m.Name, err)
	}
	return nil
}

// corruptResidual wraps a residual read/parse failure in ErrCorruptDataset
// when the cause is an integrity failure (the residual-layer counterpart of
// corruptRead).
func corruptResidual(name string, err error) error {
	for _, sentinel := range []error{
		residual.ErrBadMagic, residual.ErrUnsupportedVersion, residual.ErrUnknownBackend,
		residual.ErrCorrupt, residual.ErrTruncated,
	} {
		if errors.Is(err, sentinel) {
			return fmt.Errorf("%w: %q: %w", ErrCorruptDataset, name, err)
		}
	}
	return fmt.Errorf("store: dataset %q: %w", name, err)
}
