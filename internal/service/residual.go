package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"slices"
	"strconv"

	"rqm/internal/grid"
	"rqm/internal/residual"
	"rqm/internal/store"
)

// Progressive-quality endpoints: the lossless residual layer over the lossy
// base. A dataset put with ?exact=1 (or later promoted) carries a residual
// file alongside its container; exact reads XOR the residual onto the lossy
// reconstruction and return the original bit for bit, verified against the
// stored original hash before a single byte goes out.
//
// The endpoints are rows of the route table in New (service.go); DESIGN.md §7
// lists each with its parameters.

// residualBuilderFor resolves ?residual-backend= (default
// residual.DefaultBackend) into the builder of data's residual layer.
func residualBuilderFor(q url.Values, data []float64, prec grid.Precision) (store.ResidualBuilder, error) {
	backend := q.Get("residual-backend")
	if backend == "" {
		backend = residual.DefaultBackend
	}
	if _, err := residual.ByName(backend); err != nil {
		return nil, errf(http.StatusBadRequest, "bad_param", "residual-backend: %v", err)
	}
	return store.BuildResidual(data, prec, backend), nil
}

// serveExact answers GET ?exact=1: the full dataset at the lossless tier.
// The reconstruction is proven against the residual layer's stored
// original hash (store.WithExact) BEFORE the status commits — an exact read
// that cannot prove it is exact fails typed instead of serving plausible
// bytes. The proven samples are written from the store's pooled buffer
// inside WithExact, after a Content-Length the proof makes known.
func (s *Service) serveExact(w http.ResponseWriter, st *store.Store, m *store.Manifest) error {
	return st.WithExact(m, func(samples []byte) error {
		var hdr bytes.Buffer
		if _, err := grid.WriteHeader(&hdr, m.Prec(), m.Dims); err != nil {
			return err
		}
		s.count(&s.m.ExactReads, 1)
		h := w.Header()
		h.Set("Content-Type", "application/octet-stream")
		h.Set("Content-Length", strconv.Itoa(hdr.Len()+len(samples)))
		h.Set("X-RQM-Dataset", m.Name)
		h.Set("X-RQM-Exact", "1")
		_, err := (&net.Buffers{hdr.Bytes(), samples}).WriteTo(w)
		return ignoreWriteErr(err)
	})
}

// nextGeneration clones a full manifest (Store.FullManifest) for a
// same-container rewrite (promote / demote): identity (CreatedAt,
// ContentHash, profile) carries over, the generation bumps, and the store
// refills the container-derived fields — keeping ContainerHash makes the
// staged copy prove itself byte-identical.
func nextGeneration(m *store.Manifest) *store.Manifest {
	nm := *m
	nm.Generation++
	nm.Chunks = nil
	nm.Residual = nil
	return &nm
}

// copyContainerBuild is the build function for promote/demote: the committed
// container streamed into the stage verbatim. Reading the committed file
// while its replacement stages is safe — publish is a whole-directory swap.
func copyContainerBuild(st *store.Store, name string, nm *store.Manifest) func(io.Writer) (*store.Manifest, error) {
	return func(cw io.Writer) (*store.Manifest, error) {
		if _, err := copyStored(cw, st, name, false); err != nil {
			return nil, err
		}
		return nm, nil
	}
}

// handleDatasetPromote adds a residual layer to a committed dataset. The body
// is the original .rqmf field; the handler proves it IS the original (the
// bytes must reproduce the manifest's ContentHash) before building the
// residual against the stored container — a promotion can never quietly
// install a residual that "restores" to the wrong data. With a residual
// already present and no body, the promote is an idempotent no-op.
func (s *Service) handleDatasetPromote(req *request) error {
	w, st, name := req.w, req.st, req.name
	m, err := st.Manifest(name)
	if err != nil {
		return err
	}
	br := pooledReader(req.r.Body)
	defer releaseReader(br)
	if _, err := br.Peek(1); err != nil {
		// No body. Already promoted -> idempotent skip; otherwise the caller
		// must supply the original — the lossy base cannot conjure it.
		if m.Residual != nil {
			w.Header().Set("X-RQM-Promote", "skipped")
			return writeJSON(w, http.StatusOK, datasetInfo(m))
		}
		return fmt.Errorf("%w: %q: promotion needs the original field in the request body",
			store.ErrNoResidual, name)
	}
	hasher := sha256.New()
	f, release, err := readFieldBody(io.TeeReader(br, hasher))
	if err != nil {
		return err
	}
	defer release() // after commit: the residual builder reads f.Data
	if f.Prec.Bits() != m.PrecBits || !slices.Equal(f.Dims, m.Dims) {
		return errf(http.StatusConflict, "conflict",
			"promotion body is %d-bit %v, dataset %q is %d-bit %v",
			f.Prec.Bits(), f.Dims, name, m.PrecBits, m.Dims)
	}
	if sum := hex.EncodeToString(hasher.Sum(nil)); m.ContentHash != "" && sum != m.ContentHash {
		return errf(http.StatusConflict, "conflict",
			"promotion body hashes to %s, dataset %q was put from %s: not the original", sum, name, m.ContentHash)
	}
	rb, err := residualBuilderFor(req.q, f.Data, f.Prec)
	if err != nil {
		return err
	}
	if m, err = st.FullManifest(m); err != nil {
		return err
	}
	committed, err := req.commit(m, copyContainerBuild(st, name, nextGeneration(m)), rb)
	if err != nil {
		return err
	}
	s.count(&s.m.Promotes, 1)
	w.Header().Set("X-RQM-Promote", "promoted")
	return writeJSON(w, http.StatusCreated, datasetInfo(committed))
}

// handleDatasetDemote drops a dataset's residual layer, keeping the lossy
// base: the container is re-committed verbatim at generation+1 without a
// residual builder, which clears the manifest's residual record and deletes
// the file in the same atomic publish. Demoting a lossy dataset is a no-op.
func (s *Service) handleDatasetDemote(req *request) error {
	w, st, name := req.w, req.st, req.name
	m, err := st.Manifest(name)
	if err != nil {
		return err
	}
	if m.Residual == nil {
		w.Header().Set("X-RQM-Demote", "skipped")
		return writeJSON(w, http.StatusOK, datasetInfo(m))
	}
	if m, err = st.FullManifest(m); err != nil {
		return err
	}
	committed, err := req.commit(m, copyContainerBuild(st, name, nextGeneration(m)), nil)
	if err != nil {
		return err
	}
	s.count(&s.m.Demotes, 1)
	w.Header().Set("X-RQM-Demote", "demoted")
	return writeJSON(w, http.StatusOK, datasetInfo(committed))
}
