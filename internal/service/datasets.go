package service

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"rqm"
	"rqm/internal/grid"
	"rqm/internal/partition"
	"rqm/internal/poison"
	"rqm/internal/store"
)

// Dataset endpoints: the persistent, RQ-indexed archive behind the
// stateless compressor. A put profiles the field once, compresses it
// through the chunked pipeline, and commits container + manifest (chunk
// index, content hash, cached ratio-quality profile) crash-safely; from
// then on slice reads decompress only the chunks covering the requested
// element range, and recompaction solves the cached model for a new bound —
// skipping the rewrite entirely when the model says the target is already
// met. The store closes the paper's loop: the model doesn't just pick the
// bound at compress time, it keeps answering for the artifact's lifetime.
//
// The endpoints are rows of the route table in New (service.go); DESIGN.md §7
// lists each with its parameters.

// DatasetInfo is the JSON summary of one stored dataset (put/stat/list
// responses; the manifest minus the profile blob).
type DatasetInfo struct {
	Name           string    `json:"name"`
	CreatedAt      time.Time `json:"created_at"`
	Generation     int       `json:"generation"`
	PrecBits       int       `json:"prec_bits"`
	Dims           []int     `json:"dims"`
	Codec          string    `json:"codec"`
	Predictor      string    `json:"predictor,omitempty"`
	Mode           string    `json:"mode"`
	ErrorBound     float64   `json:"error_bound"`
	Lossless       string    `json:"lossless,omitempty"`
	Partitioner    string    `json:"partitioner,omitempty"`
	ContentHash    string    `json:"content_hash"`
	TotalValues    int64     `json:"total_values"`
	OriginalBytes  int64     `json:"original_bytes"`
	ContainerBytes int64     `json:"container_bytes"`
	Ratio          float64   `json:"ratio"`
	EstPSNR        Float     `json:"est_psnr"`
	Chunks         int       `json:"chunks"`
	Profiled       bool      `json:"profiled"`
	// Exact reports a residual layer: the dataset can serve the original bit
	// for bit (?exact=1). ResidualBytes/ResidualBackend describe its cost.
	Exact           bool   `json:"exact"`
	ResidualBytes   int64  `json:"residual_bytes,omitempty"`
	ResidualBackend string `json:"residual_backend,omitempty"`
}

// ListDatasetsResponse is the GET /v1/datasets body.
type ListDatasetsResponse struct {
	Datasets []DatasetInfo `json:"datasets"`
}

// RecompactResponse is the POST /v1/datasets/{name}/recompact body.
type RecompactResponse struct {
	Name string `json:"name"`
	// Skipped reports a zero-rewrite decision: the cached model answered
	// that the target is already met (or unreachable from a lossy archive).
	Skipped bool   `json:"skipped"`
	Reason  string `json:"reason,omitempty"`
	// Target and TargetValue echo the request.
	Target      string  `json:"target"`
	TargetValue float64 `json:"target_value"`
	// OldBound/NewBound are the end-to-end absolute error guarantees vs the
	// original data before/after (new == old when skipped). A rewrite's
	// input is itself a reconstruction, so NewBound is the accumulated
	// old+solved bound, not the rewrite's own.
	OldBound float64 `json:"old_bound"`
	NewBound float64 `json:"new_bound"`
	// OldRatio/NewRatio are the achieved compression ratios before/after.
	OldRatio float64 `json:"old_ratio"`
	NewRatio float64 `json:"new_ratio"`
	// EstPSNR is the model's quality estimate at the (new) bound.
	EstPSNR Float `json:"est_psnr"`
	// Generation is the dataset's rewrite count after this request.
	Generation int `json:"generation"`
}

func datasetInfo(m *store.Manifest) DatasetInfo {
	di := DatasetInfo{
		Name:           m.Name,
		CreatedAt:      m.CreatedAt,
		Generation:     m.Generation,
		PrecBits:       m.PrecBits,
		Dims:           m.Dims,
		Codec:          m.Codec,
		Predictor:      m.Predictor,
		Mode:           m.Mode,
		ErrorBound:     m.ErrorBound,
		Lossless:       m.Lossless,
		Partitioner:    m.Partitioner,
		ContentHash:    m.ContentHash,
		TotalValues:    m.TotalValues,
		OriginalBytes:  m.OriginalBytes,
		ContainerBytes: m.ContainerBytes,
		Ratio:          m.Ratio,
		EstPSNR:        Float(m.EstPSNR),
		Chunks:         len(m.Chunks),
		Profiled:       m.Profile != nil,
	}
	if m.Residual != nil {
		di.Exact = true
		di.ResidualBytes = m.Residual.Bytes
		di.ResidualBackend = m.Residual.Backend
	}
	return di
}

func (s *Service) handleDatasetList(req *request) error {
	ms, err := req.st.List()
	if err != nil {
		return err
	}
	resp := ListDatasetsResponse{Datasets: make([]DatasetInfo, 0, len(ms))}
	for _, m := range ms {
		resp.Datasets = append(resp.Datasets, datasetInfo(m))
	}
	return writeJSON(req.w, http.StatusOK, &resp)
}

func (s *Service) handleDatasetPut(req *request) error {
	name, q := req.name, req.q
	eng, err := s.engineFor(q)
	if err != nil {
		return err
	}
	o := eng.Options()
	if o.Mode != rqm.ABS && o.Mode != rqm.REL {
		return errf(http.StatusBadRequest, "bad_param",
			"datasets store a single absolute bound per chunk: use mode=abs or mode=rel, not %s", o.Mode)
	}
	// Parse the field straight off the wire, hashing the bytes as they pass:
	// the raw body is never retained, so a put's peak memory is one parsed
	// field, not field + body. The field is pooled: by the time commit
	// returns, the stream workers and the residual builder are done with it.
	hasher := sha256.New()
	f, release, err := readFieldBody(io.TeeReader(req.r.Body, hasher))
	if err != nil {
		return err
	}
	defer release()
	f.Name = name

	// One sampling pass buys the dataset its lifetime of O(sample) answers:
	// the profile is cached in the manifest and drives every later
	// admission, estimate, and recompaction decision.
	sample, seed, err := sampleSeed(q)
	if err != nil {
		return err
	}
	p, err := s.profile(eng, f, sample, seed)
	if err != nil {
		return err
	}
	// The store keeps only a profile whose range is finite and whose samples
	// hold no NaN (store.ProfileRecord's checks), so a field that gives any
	// other is refused here, before a container byte is staged.
	if math.IsNaN(p.Range) || math.IsInf(p.Range, 0) || slices.ContainsFunc(p.Errors, math.IsNaN) {
		return errf(http.StatusUnprocessableEntity, "non_finite_field",
			"field %q holds non-finite values (NaN or ±Inf): a dataset's profile needs a finite value range", name)
	}
	lo, hi := f.ValueRange()
	abs := o.ErrorBound
	if o.Mode == rqm.REL {
		abs = o.ErrorBound * (hi - lo)
	}
	est := p.EstimateAt(abs)

	streamOpts, err := chunkParam(q)
	if err != nil {
		return err
	}

	man := &store.Manifest{
		CreatedAt:     req.st.Stamp(name),
		PrecBits:      f.Prec.Bits(),
		Dims:          append([]int(nil), f.Dims...),
		Codec:         eng.Codec().Name(),
		Predictor:     o.Predictor.String(),
		Mode:          o.Mode.String(),
		ErrorBound:    o.ErrorBound,
		Lossless:      o.Lossless.String(),
		ContentHash:   hex.EncodeToString(hasher.Sum(nil)),
		OriginalBytes: f.OriginalBytes(),
		EstPSNR:       finiteOrZero(est.PSNR),
		Profile:       store.NewProfileRecord(p),
	}
	// ?if-generation=G turns the put into a compare-and-swap against the
	// committed version (store.Commit with a base): a writer that read
	// generation G can demand its update lands on G or fails with a typed
	// 409 — never silently clobbering a concurrent re-put or recompaction. The CAS put keeps the
	// dataset's identity (CreatedAt) and bumps its generation.
	var base *store.Manifest
	if v := q.Get("if-generation"); v != "" {
		gen, perr := strconv.Atoi(v)
		if perr != nil || gen < 0 {
			return errf(http.StatusBadRequest, "bad_param", "if-generation: %q is not a generation", v)
		}
		if base, err = req.st.Manifest(name); err != nil {
			if errors.Is(err, store.ErrNotFound) {
				return errf(http.StatusConflict, "conflict",
					"if-generation=%d but dataset %q does not exist", gen, name)
			}
			return err
		}
		if base.Generation != gen {
			return errf(http.StatusConflict, "conflict",
				"dataset %q is at generation %d, not %d", name, base.Generation, gen)
		}
		man.CreatedAt = base.CreatedAt
		man.Generation = base.Generation + 1
	}
	// ?exact=1 stages a residual layer alongside the container: the put
	// becomes progressive-quality, able to serve the original bit for bit.
	var rb store.ResidualBuilder
	if q.Get("exact") == "1" {
		if rb, err = residualBuilderFor(q, f.Data, f.Prec); err != nil {
			return err
		}
	}
	committed, err := req.commit(base, func(cw io.Writer) (*store.Manifest, error) {
		_, err := streamBuild(cw, eng, f, lo, hi, streamOpts...)
		return man, err
	}, rb)
	if err != nil {
		return err
	}
	s.count(&s.m.DatasetPuts, 1)
	return writeJSON(req.w, http.StatusCreated, datasetInfo(committed))
}

func (s *Service) handleDatasetGet(req *request) error {
	w, st, name, q := req.w, req.st, req.name, req.q
	m, err := st.Manifest(name)
	if err != nil {
		return err
	}
	if q.Get("manifest") == "1" {
		if q.Get("full") == "1" {
			// The complete manifest in its wire form, chunk index and cached
			// profile samples included: together with ?raw=1 this is
			// everything a replica repair needs to clone the dataset without
			// decompressing a single chunk.
			full, err := st.FullManifest(m)
			if err != nil {
				return err
			}
			return writeJSON(w, http.StatusOK, full)
		}
		info := datasetInfo(m)
		return writeJSON(w, http.StatusOK, &info)
	}
	// Payload paths ship container-scale bytes: heavy from here on.
	release, err := s.admit(w)
	if err != nil {
		return err
	}
	defer release()
	raw := q.Get("raw") == "1"
	// Verify before serve. A shallow verification pass up front (container
	// structure + every chunk CRC — cheap next to the decompression that
	// follows) turns stored rot into a typed 422 corrupt_dataset before the
	// status goes out, which is what lets a replicated router fail over
	// cleanly and repair this copy. The raw path pays it only on request
	// (?verify=1, which routers from before GET /raw sync with); plain
	// clients keep a verbatim sendfile-speed copy, protected end-to-end by
	// the manifest's ContainerHash instead.
	if !raw || q.Get("verify") == "1" {
		if err := st.VerifyLoaded(name, m, false); err != nil {
			return err
		}
	}
	if !raw {
		s.count(&s.m.DatasetGets, 1)
		return s.serveValues(w, st, m, q.Get("exact") == "1")
	}
	h := w.Header()
	h.Set("Content-Type", "application/octet-stream")
	h.Set("X-RQM-Dataset", m.Name)
	// A stored file, verbatim: the container — clients can random-access
	// it with ReadStreamIndex/ReadStreamChunk without another server
	// round trip — or, with &residual=1, the residual file, its
	// integrity riding the manifest's residual hash.
	residual, size := q.Get("residual") == "1", m.ContainerBytes
	if residual {
		if m.Residual == nil {
			return fmt.Errorf("%w: %q", store.ErrNoResidual, name)
		}
		size = m.Residual.Bytes
		h.Set("X-RQM-Residual-Backend", m.Residual.Backend)
		h.Set("X-RQM-Residual-Hash", m.Residual.Hash)
	}
	h.Set("Content-Length", strconv.FormatInt(size, 10))
	if n, err := st.CopyStored(w, m, residual); n == 0 && err != nil {
		return err
	}
	s.count(&s.m.DatasetGets, 1)
	return nil
}

// serveValues answers a whole-dataset GET: the .rqmf header and the samples
// at storage width, with their Content-Length — the decoded reconstruction,
// or with exact set the original, proven against the residual layer's
// original hash. Every chunk has decoded (store.WithSamples) before the
// status commits, so a read that cannot finish fails typed instead of
// cutting a 200 short.
func (s *Service) serveValues(w http.ResponseWriter, st *store.Store, m *store.Manifest, exact bool) error {
	return st.WithSamples(m, exact, func(field string, samples []byte) error {
		var hdr bytes.Buffer
		if _, err := grid.WriteHeader(&hdr, m.Prec(), m.Dims); err != nil {
			return err
		}
		h := w.Header()
		h.Set("Content-Type", "application/octet-stream")
		h.Set("Content-Length", strconv.Itoa(hdr.Len()+len(samples)))
		h.Set("X-RQM-Dataset", m.Name)
		if exact {
			s.count(&s.m.ExactReads, 1)
			h.Set("X-RQM-Exact", "1")
		} else {
			h.Set("X-RQM-Field", field)
		}
		_, err := (&net.Buffers{hdr.Bytes(), samples}).WriteTo(w)
		return ignoreWriteErr(err)
	})
}

func (s *Service) handleDatasetDelete(req *request) error {
	if err := req.st.Delete(req.name); err != nil {
		return err
	}
	s.count(&s.m.DatasetDeletes, 1)
	return writeJSON(req.w, http.StatusOK, map[string]interface{}{"deleted": req.name})
}

func (s *Service) handleDatasetSlice(req *request) error {
	w, st, q := req.w, req.st, req.q
	off, err := intParam(q, "off", 0)
	if err != nil {
		return err
	}
	n, err := intParam(q, "len", -1)
	if err != nil {
		return err
	}
	if n <= 0 {
		return errf(http.StatusBadRequest, "bad_param", "slice needs a positive len parameter")
	}
	m, err := st.Manifest(req.name)
	if err != nil {
		return err
	}
	// ?exact=1 reads the range at the lossless tier: same covering-chunk
	// decode, plus each chunk's residual block — still O(covering chunks).
	exact := q.Get("exact") == "1"
	var vals []float64
	if exact {
		vals, err = st.ReadRangeExact(m, off, n)
	} else {
		vals, err = st.ReadRangeWith(m, off, n)
	}
	if err != nil {
		return err
	}
	s.count(&s.m.SliceReads, 1)
	if exact {
		s.count(&s.m.ExactReads, 1)
	}
	// The slice travels as a self-describing 1-D .rqmf field in the
	// dataset's original precision; the offset rides in a header.
	sf, err := grid.FromData(m.Name, m.Prec(), vals, len(vals))
	if err != nil {
		return err
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-RQM-Dataset", m.Name)
	w.Header().Set("X-RQM-Offset", strconv.FormatInt(off, 10))
	if exact {
		w.Header().Set("X-RQM-Exact", "1")
	}
	_, err = sf.WriteTo(w)
	return ignoreWriteErr(err)
}

func (s *Service) handleDatasetRecompact(req *request) error {
	w, st, name, q := req.w, req.st, req.name, req.q
	target, val, err := modelTarget(q, false, "target-ratio", "target-psnr")
	if err != nil {
		return err
	}
	if !(val > 0) {
		return errf(http.StatusBadRequest, "bad_param", "recompaction target must be positive")
	}

	// The decision needs the profile's samples; the rewrite carries them
	// forward and the CAS is against this version.
	m, err := st.Manifest(name)
	if err != nil {
		return err
	}
	if m, err = st.FullManifest(m); err != nil {
		return err
	}
	p, err := m.RQProfile()
	if err != nil {
		return err
	}
	curAbs := m.ErrorBound
	if m.Mode == "rel" {
		curAbs = m.ErrorBound * p.Range
	}

	resp := &RecompactResponse{
		Name:        name,
		Target:      strings.TrimPrefix(target, "target-"),
		TargetValue: val,
		OldBound:    curAbs,
		NewBound:    curAbs,
		OldRatio:    m.Ratio,
		NewRatio:    m.Ratio,
		EstPSNR:     Float(m.EstPSNR),
		Generation:  m.Generation,
	}

	// The decision is answered entirely from the cached profile — O(sample),
	// no decompression: only a rewrite the model endorses touches the
	// container. A residual layer changes the calculus: the rewrite re-encodes
	// from the TRUE original (recovered bit-exactly), so the "a lossy archive
	// cannot improve" skips do not apply — any model-solved bound is reachable,
	// error does not accumulate, and tightening quality is legal.
	hasResidual := m.Residual != nil
	var newAbs float64
	switch target {
	case "target-ratio":
		if m.Ratio >= val {
			resp.Skipped = true
			resp.Reason = fmt.Sprintf("achieved ratio %.2fx already meets the %.2fx target", m.Ratio, val)
			break
		}
		newAbs, err = p.ErrorBoundForRatio(val)
		if err != nil {
			return errf(http.StatusBadRequest, "unsolvable", "%v", err)
		}
		if newAbs <= curAbs && !hasResidual {
			resp.Skipped = true
			resp.Reason = fmt.Sprintf(
				"model bound %.6g for ratio %.2fx is not looser than the stored bound %.6g; rewriting cannot gain",
				newAbs, val, curAbs)
		}
	default:
		newAbs, err = p.ErrorBoundForPSNR(val)
		if err != nil {
			return errf(http.StatusBadRequest, "unsolvable", "%v", err)
		}
		if newAbs <= curAbs*(1+1e-9) && !hasResidual {
			resp.Skipped = true
			resp.Reason = fmt.Sprintf(
				"stored bound %.6g is already at or beyond the bound %.6g the model solves for %.4g dB; "+
					"a lossy archive cannot be recompressed to higher quality", curAbs, newAbs, val)
		}
	}
	if resp.Skipped {
		s.count(&s.m.RecompactionsSkipped, 1)
		return writeJSON(w, http.StatusOK, resp)
	}

	// The rewrite keeps the manifest-recorded partitioner by default, so a
	// dataset once rewritten with spatial partitioning stays spatially
	// partitioned; ?adaptive-space=1 opts a fixed-slab dataset in.
	partName := m.Partitioner
	if q.Get("adaptive-space") == "1" {
		partName = partition.VarianceQuadtreeName
	}

	// The rewrite's input is the whole dataset, read through the store's
	// chunk walk. With a residual layer it is the true original: the new
	// residual is rebuilt against the new container, and accumulated error
	// dies here instead of compounding. That recovery is proven against
	// original_hash, so a residual that does not rebuild the original is
	// refused here instead of re-stamped.
	buf, release := pooledValues()
	vals, err := st.ReadValues(m, hasResidual, buf)
	if err != nil {
		release(buf)
		return err
	}
	defer func() { release(vals) }()
	nm, rwStats, err := rewriteDataset(req, m, curAbs, newAbs, p, partName, adaptiveBound(target, val), vals, hasResidual)
	if err != nil {
		return err
	}
	s.count(&s.m.Recompactions, 1)
	if partName != "" && partName != partition.FixedSlabName {
		s.count(&s.m.AdaptiveSpaceRuns, 1)
		s.count(&s.m.PartitionRegions, int64(rwStats.Chunks))
		s.count(&s.m.PartitionSplits, int64(rwStats.Splits))
	}
	resp.NewBound = nm.ErrorBound
	resp.NewRatio = nm.Ratio
	resp.EstPSNR = Float(nm.EstPSNR)
	resp.Generation = nm.Generation
	return writeJSON(w, http.StatusOK, resp)
}

// rewriteDataset recompresses vals, the stored dataset's values, at the
// model-solved absolute bound through the stream pipeline, committing
// the replacement with the same crash-safe protocol as a put — conditioned
// on the dataset still being the version the decision was made against
// (store.Commit with a base; a concurrent re-put or delete aborts with
// 409). The cached profile (a model of the *original* data) rides along
// unchanged — that is what keeps the next recompaction decision O(sample)
// too.
//
// The rewrite's input is the stored reconstruction, already up to curAbs
// away from the original, so the manifest records curAbs+newAbs — the
// honest end-to-end guarantee against the original data — not the rewrite's
// own bound. Each generation's recorded bound therefore stays a true bound
// as errors accumulate.
//
// With exact set (vals is the true original, recovered through the residual
// layer) the accumulation story inverts: the rewrite's input IS the original,
// the manifest records newAbs alone, and the residual is rebuilt against the
// new container so the dataset stays bit-exact at generation+1.
//
// With a non-fixed partName the rewrite replans chunk geometry spatially:
// the named partitioner splits the field where variance is non-uniform and
// the policy solves a bound per region, so the per-chunk bounds vary and the
// manifest records curAbs plus the loosest of them. Partitioners are
// deterministic, so recording partName makes the geometry reproducible by
// the next recompaction.
func rewriteDataset(req *request, m *store.Manifest, curAbs, newAbs float64, p *rqm.Profile, partName string, policy rqm.AdaptiveBound, vals []float64, exact bool) (*store.Manifest, rqm.StreamStats, error) {
	var stats rqm.StreamStats
	baseErr := curAbs
	if exact {
		baseErr = 0 // exact input: no inherited error, the new bound stands alone
	}
	f, err := grid.FromData(m.Name, m.Prec(), vals, m.Dims...)
	if err != nil {
		return nil, stats, err
	}

	// Empty names are the fields' omitempty zero: the codec's defaults.
	// Anything else was validated by store.ParseManifest.
	kind, lossless := rqm.Lorenzo, rqm.LosslessNone
	if m.Predictor != "" {
		if kind, err = rqm.ParsePredictorKind(m.Predictor); err != nil {
			return nil, stats, err
		}
	}
	if m.Lossless != "" {
		if lossless, err = rqm.ParseLosslessKind(m.Lossless); err != nil {
			return nil, stats, err
		}
	}
	opts := []rqm.EngineOption{
		rqm.WithMode(rqm.ABS),
		rqm.WithErrorBound(newAbs),
		rqm.WithPredictor(kind),
		rqm.WithLossless(lossless),
	}
	if m.Codec != "" {
		opts = append(opts, rqm.WithCodecName(m.Codec))
	}
	eng, err := rqm.NewEngine(opts...)
	if err != nil {
		return nil, stats, err
	}
	effective := baseErr + newAbs
	est := p.EstimateAt(effective)
	nm := &store.Manifest{
		CreatedAt:     m.CreatedAt,
		Generation:    m.Generation + 1,
		PrecBits:      m.PrecBits,
		Dims:          m.Dims,
		Codec:         m.Codec,
		Predictor:     m.Predictor,
		Mode:          "abs",
		ErrorBound:    effective,
		Lossless:      m.Lossless,
		Partitioner:   partName,
		ContentHash:   m.ContentHash,
		OriginalBytes: m.OriginalBytes,
		EstPSNR:       finiteOrZero(est.PSNR),
		Profile:       m.Profile,
	}
	// The rewrite keeps the dataset's chunk size: slice-read granularity is
	// a property the owner tuned at put time, not a recompaction side
	// effect. A spatial partitioner treats it as the region-size cap.
	var streamOpts []rqm.StreamOption
	if m.ChunkValues > 0 {
		streamOpts = append(streamOpts, rqm.WithChunkSize(m.ChunkValues))
	}
	spatial := partName != "" && partName != partition.FixedSlabName
	if spatial {
		pt, err := rqm.PartitionerByName(partName)
		if err != nil {
			return nil, stats, err
		}
		// The partitioner solves a bound per region against the original
		// target, so the rewrite needs the adaptive policy, not the single
		// globally solved newAbs.
		streamOpts = append(streamOpts,
			rqm.WithPartitioner(pt),
			rqm.WithAdaptiveBound(policy))
	}
	var rb store.ResidualBuilder
	if exact {
		rb = store.RebuildResidual(vals, m) // vals are proven: no second hash
	}
	lo, hi := f.ValueRange()
	committed, err := req.commit(m, func(cw io.Writer) (*store.Manifest, error) {
		var err error
		if stats, err = streamBuild(cw, eng, f, lo, hi, streamOpts...); err != nil {
			return nil, err
		}
		if spatial {
			// Per-region bounds vary; the honest end-to-end guarantee is the
			// accumulated input error plus the loosest region bound.
			nm.ErrorBound = baseErr + stats.MaxBound
			nm.EstPSNR = finiteOrZero(p.EstimateAt(nm.ErrorBound).PSNR)
		}
		return nm, nil
	}, rb)
	return committed, stats, err
}

// stagingWriters recycles streamBuild's 1 MiB staging buffers across
// commits.
var stagingWriters = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, 1<<20) }}

// streamBuild stages the container of a compressing commit: f, whose value
// range the caller has taken once as [lo, hi], through eng's chunked
// pipeline into cw. It declares shape, name and range — what
// NewFieldStreamWriter declares for a REL engine — without scanning the
// field for the range again.
func streamBuild(cw io.Writer, eng *rqm.Engine, f *rqm.Field, lo, hi float64, opts ...rqm.StreamOption) (rqm.StreamStats, error) {
	bw := stagingWriters.Get().(*bufio.Writer)
	bw.Reset(cw)
	defer func() {
		bw.Reset(nil) // drop cw: the pool must not keep a staged file alive
		stagingWriters.Put(bw)
	}()
	sw, err := eng.NewStreamWriter(bw, append([]rqm.StreamOption{
		rqm.WithStreamShape(f.Prec, f.Dims...),
		rqm.WithStreamFieldName(f.Name),
		rqm.WithStreamValueRange(lo, hi),
	}, opts...)...)
	if err != nil {
		return rqm.StreamStats{}, err
	}
	if err := sw.WriteValues(f.Data); err != nil {
		sw.Close()
		return rqm.StreamStats{}, err
	}
	if err := sw.Close(); err != nil {
		return rqm.StreamStats{}, err
	}
	return sw.Stats(), bw.Flush()
}

// commit is the tail every dataset mutation ends in: one store.Commit, its
// failures mapped onto request-shaped errors. Typed store errors — notably
// ErrConflict from a compare-and-swap, and ErrCorruptDataset from the
// commit-time verification of the staged files — keep their own HTTP
// mapping (409 / 422 corrupt_dataset via mapError); only untyped
// build/commit failures collapse into the 422 put_failed envelope.
func (req *request) commit(base *store.Manifest, build func(io.Writer) (*store.Manifest, error), rb store.ResidualBuilder) (*store.Manifest, error) {
	m, err := req.st.Commit(req.name, base, build, rb)
	if err == nil || errors.Is(err, store.ErrConflict) || errors.Is(err, store.ErrNotFound) ||
		errors.Is(err, store.ErrBadName) || errors.Is(err, store.ErrCorruptDataset) {
		return m, err
	}
	return nil, errf(http.StatusUnprocessableEntity, "put_failed", "%v", err)
}

// RawPutMaxManifest caps the framed manifest record of a raw put (16 MiB —
// generous: the frame carries the manifest's wire form, whose dominant field
// is the base64 profile, ~1 MiB per 10M-value dataset at the default 1%
// sampling rate; on disk those samples sit in the profile sidecar instead).
// GET /raw refuses to serve a frame past it, POST /raw to admit one.
const RawPutMaxManifest = 16 << 20

// handleDatasetRawGet serves dataset name's raw-put frame: exactly the body
// handleDatasetRawPut admits — a 4-byte big-endian manifest length, the full
// manifest in its wire form, the container, then the residual file when the
// manifest declares one — with its Content-Length. It is the source half of
// a replica sync, one read a router pipes into the target's POST /raw
// without parsing it, so the frame's layout and cap live in this file alone.
// The copy is shallow-verified before the status goes out (a corrupt source
// answers 422 corrupt_dataset instead of spreading its rot), and a manifest
// past RawPutMaxManifest is refused before any byte goes out.
func (s *Service) handleDatasetRawGet(req *request) error {
	w, st, name := req.w, req.st, req.name
	m, err := st.Manifest(name)
	if err != nil {
		return err
	}
	if err := st.VerifyLoaded(name, m, false); err != nil {
		return err
	}
	if m, err = st.FullManifest(m); err != nil {
		return err
	}
	man, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("raw get: encoding the manifest of %q: %w", name, err)
	}
	if len(man) > RawPutMaxManifest {
		return errf(http.StatusUnprocessableEntity, "manifest_too_large",
			"raw get: the manifest of %q is %d bytes, a raw-put frame carries at most %d", name, len(man), RawPutMaxManifest)
	}
	size := 4 + int64(len(man)) + m.ContainerBytes
	if m.Residual != nil {
		size += m.Residual.Bytes
	}
	h := w.Header()
	h.Set("Content-Type", "application/octet-stream")
	h.Set("Content-Length", strconv.FormatInt(size, 10))
	h.Set("X-RQM-Dataset", name)
	s.count(&s.m.DatasetGets, 1)
	// The status commits with the first byte: from here a failure (the
	// client gone, or the dataset replaced or deleted under the read) can
	// only truncate the frame, which the target refuses.
	_, err = (&net.Buffers{binary.BigEndian.AppendUint32(nil, uint32(len(man))), man}).WriteTo(w)
	if err == nil {
		_, err = st.CopyStored(w, m, false)
	}
	if err == nil && m.Residual != nil {
		_, err = st.CopyStored(w, m, true)
	}
	return ignoreWriteErr(err)
}

// frameBufs recycles the raw put's manifest buffers.
var frameBufs = sync.Pool{New: func() any { return new([]byte) }}

// handleDatasetRawPut admits an already-compressed dataset verbatim: the
// body, as GET /raw serves it, is a 4-byte big-endian manifest length, the
// full manifest JSON in its wire form (store.WireVersion), the container
// bytes, then the residual file when the manifest declares one. This is the
// replication hook replica repair and rebalancing ride: the container
// streams straight to disk — never decompressed, never recompressed — and
// the manifest's identity (CreatedAt, Generation, ContentHash, cached
// profile) is preserved bit for bit.
//
// store.CompareVersions against the committed copy is the conflict arbiter:
//
//   - target has no committed copy        -> admit
//   - incoming is strictly newer          -> replace (CAS on the loaded base)
//   - versions identical, same content    -> skip, 200 (idempotent repair) —
//     unless ?repair=1 AND the committed copy fails deep verification,
//     in which case the incoming bytes replace the rotten ones (201,
//     X-RQM-Raw-Put: repaired). A corrupt container keeps its manifest, so
//     without the re-check read-repair would be "skipped" into a no-op; and
//     a chunk that passes its CRC but does not decode fails a GET, so the
//     re-check decodes and hashes what a shallow pass would let through.
//   - incoming older, or same-version but
//     divergent content                   -> typed 409, nothing written
//
// The store additionally hashes the staged container against the incoming
// manifest's ContainerHash, so a copy corrupted in flight is rejected
// rather than committed.
func (s *Service) handleDatasetRawPut(req *request) error {
	w, st, name := req.w, req.st, req.name
	repair := req.q.Get("repair") == "1"
	br := pooledReader(req.r.Body)
	defer releaseReader(br) // commit has read the container and residual
	var lenBuf [4]byte
	if _, err := io.ReadFull(br, lenBuf[:]); err != nil {
		return errf(http.StatusBadRequest, "bad_manifest", "raw put: manifest length frame: %v", err)
	}
	mlen := binary.BigEndian.Uint32(lenBuf[:])
	if mlen == 0 || mlen > RawPutMaxManifest {
		return errf(http.StatusBadRequest, "bad_manifest", "raw put: manifest frame of %d bytes", mlen)
	}
	// The length prefix alone sizes nothing: the manifest buffer starts at
	// the bytes already received and grows as more arrive, so a short body
	// declaring 16 MiB allocates little. The buffer is pooled and goes back
	// once ParseManifest returns: json.Unmarshal copies what it keeps.
	mb := frameBufs.Get().(*[]byte)
	var m *store.Manifest
	mbuf, err := ReadBody(*mb, io.LimitReader(br, int64(mlen)), int64(min(int(mlen), br.Buffered())))
	if err == nil && len(mbuf) < int(mlen) {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		err = errf(http.StatusBadRequest, "bad_manifest", "raw put: manifest truncated: %v", err)
	} else if m, err = store.ParseManifest(mbuf); err != nil {
		// The manifest is client input here, not stored state: a parse
		// failure is the caller's 400, not the store's 500.
		err = errf(http.StatusBadRequest, "bad_manifest", "raw put: %v", err)
	}
	poison.Bytes(mbuf)
	*mb = mbuf
	frameBufs.Put(mb)
	if err != nil {
		return err
	}
	if m.Name != name {
		return errf(http.StatusBadRequest, "bad_manifest",
			"raw put: manifest names %q, path names %q", m.Name, name)
	}
	if m.Version != store.WireVersion {
		return errf(http.StatusBadRequest, "bad_manifest",
			"raw put: manifest version %d, the frame carries version %d", m.Version, store.WireVersion)
	}

	repaired := false
	cur, err := st.Manifest(name)
	switch {
	case errors.Is(err, store.ErrNotFound):
		cur = nil
	case (errors.Is(err, store.ErrManifestCorrupt) || errors.Is(err, store.ErrManifestVersion)) && repair:
		// A torn manifest leaves no trustworthy committed version to
		// arbitrate against: a repair put overwrites the wreck outright
		// instead of failing the way a plain read of it would.
		cur = nil
		repaired = true
	case err != nil:
		return err
	}
	if cur != nil {
		order := store.CompareVersions(m.CreatedAt, m.Generation, cur.CreatedAt, cur.Generation)
		switch {
		case order == 0 && cur.ContentHash == m.ContentHash:
			// The replica already holds this exact version. Trust it only as
			// far as asked: with ?repair=1 the committed copy must pass
			// deep verification to earn the idempotent skip.
			verr := error(nil)
			if repair {
				verr = st.VerifyLoaded(name, cur, true)
			}
			if verr == nil {
				w.Header().Set("X-RQM-Raw-Put", "skipped")
				return writeJSON(w, http.StatusOK, datasetInfo(cur))
			}
			repaired = true // fall through: same-version replace over the rot
		case order <= 0:
			return errf(http.StatusConflict, "conflict",
				"raw put: committed %q is generation %d (created %s), incoming generation %d (created %s) does not supersede it",
				name, cur.Generation, cur.CreatedAt.Format(time.RFC3339Nano),
				m.Generation, m.CreatedAt.Format(time.RFC3339Nano))
		}
	}

	// When the incoming manifest declares a residual layer, the frame carries
	// the residual file right after the container: exactly ContainerBytes of
	// container, then exactly Residual.Bytes of residual, and nothing after.
	// CopyResidual makes the store's staging checks prove the copy arrived
	// byte-identical.
	build := func(cw io.Writer) (*store.Manifest, error) {
		var err error
		if m.Residual != nil {
			_, err = io.CopyN(cw, br, m.ContainerBytes)
		} else {
			_, err = io.Copy(cw, br)
		}
		return m, err
	}
	var rb store.ResidualBuilder
	if m.Residual != nil {
		rb = store.CopyResidual(br, m.Residual)
	}
	committed, err := req.commit(cur, build, rb)
	if err != nil {
		return err
	}
	s.count(&s.m.DatasetRawPuts, 1)
	if repaired {
		w.Header().Set("X-RQM-Raw-Put", "repaired")
	} else {
		w.Header().Set("X-RQM-Raw-Put", "stored")
	}
	return writeJSON(w, http.StatusCreated, datasetInfo(committed))
}

// intParam parses an optional int64 parameter with a default.
func intParam(q url.Values, name string, def int64) (int64, error) {
	v := q.Get(name)
	if v == "" {
		return def, nil
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		return 0, errf(http.StatusBadRequest, "bad_param", "%s: %q is not an integer", name, v)
	}
	return n, nil
}

// finiteOrZero clamps non-finite model estimates for JSON-borne manifests.
func finiteOrZero(v float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return 0
	}
	return v
}
