// Residual-layer store support: staging the residual file, the one opening
// of it that staging, verification and exact reads share, the exact
// (bit-lossless) range read path, the whole-dataset reads and their proof
// against the original hash, and the builders that synthesize or copy a
// residual against a staged container.
package store

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"

	"rqm/internal/codec"
	"rqm/internal/grid"
	"rqm/internal/poison"
	"rqm/internal/residual"
)

// stageResidual writes rb's residual file into the staging directory beside
// the staged container at cpath, records it in m, and holds it to m with the
// shallow verification scrub runs on a committed residual — so a residual
// that would fail verification is never published, the same refuse-to-commit
// discipline the container gets. The builder's record is completed in
// place: a hash it declares (a replica transfer must arrive intact) must
// match the staged bytes, and a declared size is held to them by that
// verification.
func (s *Store) stageResidual(stage, cpath string, m *Manifest, rb ResidualBuilder) error {
	var rec *ResidualRecord
	size, sum, err := stageFile(filepath.Join(stage, ResidualFile), func(w io.Writer) (err error) {
		rec, err = rb(cpath, w)
		return err
	})
	if err != nil {
		return err
	}
	if rec == nil {
		return errors.New("store: residual builder returned no record")
	}
	if rec.Hash != "" && rec.Hash != sum {
		return fmt.Errorf("%w: %q: staged residual hashes to %s, record declares %s",
			ErrCorruptDataset, m.Name, sum, rec.Hash)
	}
	rec.Bytes, rec.Hash = cmp.Or(rec.Bytes, size), sum
	m.Residual = rec
	_, err = s.verifyResidual(stage, m, false)
	return err
}

// openResidual is the one opening of a residual file: the one in dir, held
// to m's residual record — present, Residual.Bytes long, an index that
// parses, and a header and blocks that agree with the record and the
// dataset (backend, width, size, original hash, one block per chunk
// covering the chunk's values). Staging, verification and exact reads all
// open a residual through it. A record with no original hash, which only a
// staged BuildResidual leaves, takes the one the file header carries: the
// original is hashed once per put, by the encoder. The caller closes the
// file.
func (s *Store) openResidual(dir string, m *Manifest) (_ io.ReadSeekCloser, _ *residual.Index, err error) {
	name, rec := m.Name, m.Residual
	f, err := s.fs.Open(filepath.Join(dir, ResidualFile))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil, fmt.Errorf("%w: %q: manifest records a residual but the file is missing",
				ErrCorruptDataset, name)
		}
		return nil, nil, fmt.Errorf("store: %w", err)
	}
	defer func() {
		if err != nil {
			f.Close()
		}
	}()
	if err := checkSize(name, ResidualFile, f, rec.Bytes); err != nil {
		return nil, nil, err
	}
	idx, err := residual.LoadIndex(f)
	if err != nil {
		return nil, nil, corruptResidual(name, err)
	}
	c, err := residual.ByName(rec.Backend)
	if err != nil {
		return nil, nil, corruptResidual(name, err)
	}
	hh := hex.EncodeToString(idx.Header.OriginalHash[:])
	if rec.OriginalHash == "" {
		rec.OriginalHash = hh
	}
	switch {
	case idx.Header.BackendID != c.ID():
		err = fmt.Errorf("residual coded with backend id %d, record names %q", idx.Header.BackendID, rec.Backend)
	case idx.Header.Width*8 != m.PrecBits:
		err = fmt.Errorf("residual width %d bytes for %d-bit data", idx.Header.Width, m.PrecBits)
	case idx.Header.ElemCount != m.TotalValues:
		err = fmt.Errorf("residual covers %d values, dataset holds %d", idx.Header.ElemCount, m.TotalValues)
	case hh != rec.OriginalHash:
		err = fmt.Errorf("residual header original hash %s, record declares %s", hh, rec.OriginalHash)
	case len(idx.Blocks) != len(m.Chunks):
		err = fmt.Errorf("residual holds %d blocks, container holds %d chunks", len(idx.Blocks), len(m.Chunks))
	}
	for i := 0; err == nil && i < len(idx.Blocks); i++ {
		if b := idx.Blocks[i]; b.Values != m.Chunks[i].Values {
			err = fmt.Errorf("residual block %d covers %d values, chunk covers %d", i, b.Values, m.Chunks[i].Values)
		}
	}
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %q: %v", ErrCorruptDataset, name, err)
	}
	return f, idx, nil
}

// BuildResidual synthesizes a residual layer: it decodes the (staged or
// committed) container at containerPath to obtain the exact lossy
// reconstruction — what the decoder produces, never the compressor's working
// array — and codes each chunk's residual block against orig as the chunk
// decodes, so the file is blocked to the container's chunk geometry and the
// reconstruction is never held whole. The returned record declares the
// backend; the store fills Bytes and Hash at staging and takes OriginalHash
// from the file header, so the digest the encoder stamped — the original is
// hashed once per put — is the one the manifest declares. Shaped as a
// ResidualBuilder factory so callers pass BuildResidual(orig, prec, backend)
// straight to Commit.
func BuildResidual(orig []float64, prec grid.Precision, backend string) ResidualBuilder {
	return buildResidual(orig, prec, backend, nil)
}

// RebuildResidual is BuildResidual for m's original as ReadValues(m, true,
// …) proved it against m's original hash: the encoder stamps that digest
// instead of hashing orig again.
func RebuildResidual(orig []float64, m *Manifest) ResidualBuilder {
	var sum [32]byte
	_, _ = hex.Decode(sum[:], []byte(m.Residual.OriginalHash)) // the proof matched its hex
	return buildResidual(orig, m.Prec(), m.Residual.Backend, &sum)
}

// buildResidual is BuildResidual, stamping origHash when it is not nil.
func buildResidual(orig []float64, prec grid.Precision, backend string, origHash *[32]byte) ResidualBuilder {
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
		enc, err := residual.NewEncoder(w, c, prec, orig, origHash, len(idx.Entries))
		if err != nil {
			return nil, err
		}
		err = eachChunk(containerPath, f, idx.Entries, 0, len(idx.Entries), true, func(_ int, vals []float64) error {
			return enc.Block(vals)
		})
		if err != nil {
			return nil, fmt.Errorf("store: residual base: %w", err)
		}
		if _, err := enc.Close(); err != nil {
			return nil, err
		}
		return &ResidualRecord{Backend: backend}, nil
	}
}

// CopyResidual is the replica-transfer ResidualBuilder: it streams exactly
// declared.Bytes from r into the staged residual file and re-declares the
// source's record, so the store's staging checks prove the copy arrived
// byte-identical (hash and size must reproduce). r must end there: a byte
// after the residual is ErrCorruptDataset, as a byte after a container is.
func CopyResidual(r io.Reader, declared *ResidualRecord) ResidualBuilder {
	return func(_ string, w io.Writer) (*ResidualRecord, error) {
		if declared == nil {
			return nil, errors.New("store: CopyResidual needs the declared record")
		}
		if _, err := io.CopyN(w, r, declared.Bytes); err != nil {
			return nil, fmt.Errorf("store: copying residual: %w", err)
		}
		if _, err := io.ReadFull(r, make([]byte, 1)); err == nil {
			return nil, fmt.Errorf("%w: bytes follow the declared %d-byte residual",
				ErrCorruptDataset, declared.Bytes)
		} else if err != io.EOF {
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
	return s.readRange(m, off, n, true, nil)
}

// ReadValues is the whole dataset's values in order, into dst's storage
// when its capacity holds them (the values are dst[:0] extended): the
// decoded reconstruction, as ReadRangeWith returns it, or with exact set
// WithSamples's proven samples decoded.
func (s *Store) ReadValues(m *Manifest, exact bool, dst []float64) (vals []float64, err error) {
	if !exact {
		return s.readRange(m, 0, m.TotalValues, false, dst)
	}
	err = s.WithSamples(m, true, func(_ string, samples []byte) error {
		vals = grid.DecodeSamples(slices.Grow(dst[:0], int(m.TotalValues)), m.Prec(), samples)
		return nil
	})
	return vals, err
}

// WithSamples is the whole dataset at storage width: fn gets the name the
// container records for its field and the samples as grid.EncodeSamples
// writes them, in a pooled buffer valid until fn returns. With exact set
// the samples are the original's, and fn gets them only once they hash to
// the residual layer's original hash (else ErrCorruptDataset; ErrNoResidual
// without one).
func (s *Store) WithSamples(m *Manifest, exact bool, fn func(field string, samples []byte) error) error {
	return s.readSamples(m, exact, &s.chunkReads, fn)
}

// sampleBufs recycles the sample buffers readSamples fills.
var sampleBufs = sync.Pool{New: func() any { return new([]byte) }}

// readSamples is the one whole-dataset read of samples, behind WithSamples
// and deep verification: walkRange's values appended to a pooled buffer at
// storage width, fn called once the walk is done. With exact set the
// samples are hashed as they are appended and fn is called only once the
// digest matches original_hash: the one proof of an exact read. Chunks are
// counted in reads, as readRange counts them.
func (s *Store) readSamples(m *Manifest, exact bool, reads *atomic.Int64, fn func(field string, samples []byte) error) error {
	prec := m.Prec()
	buf := sampleBufs.Get().(*[]byte)
	defer func() {
		poison.Bytes(*buf)
		sampleBufs.Put(buf)
	}()
	b, h := (*buf)[:0], sha256.New()
	hdr, err := s.walkRange(m, 0, m.TotalValues, exact, reads, func(vals []float64) {
		if len(b) == 0 {
			b = slices.Grow(b, int(m.TotalValues)*prec.Bits()/8)
		}
		at := len(b)
		b = grid.EncodeSamples(b, prec, vals)
		if exact {
			h.Write(b[at:])
		}
	})
	*buf = b // keeps a buffer the dataset outgrew
	if err != nil {
		return err
	}
	if exact {
		if got := hex.EncodeToString(h.Sum(nil)); got != m.Residual.OriginalHash {
			return fmt.Errorf("%w: %q: exact reconstruction hashes to %s, residual layer promises %s",
				ErrCorruptDataset, m.Name, got, m.Residual.OriginalHash)
		}
	}
	return fn(hdr.Name, b)
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
