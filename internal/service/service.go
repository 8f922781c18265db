// Package service is the HTTP serving layer over the ratio-quality engine:
// one process exposing compression, decompression, and — the paper's core
// asset — O(sample)-time ratio/quality answers from a profile cache. A field
// is profiled once (one cheap sampling pass, POST /v1/profile); every
// subsequent estimate and inverse solve is served from the cached profile
// with no compression run and no re-sampling, the "predict before you
// compress" pattern at serving scale.
//
// The stateless endpoints are POST /v1/compress, /v1/decompress and
// /v1/profile, GET /v1/estimate and /v1/solve, plus /healthz and /metrics;
// with a configured Store the service also hosts the persistent dataset
// archive under /v1/datasets (see datasets.go and internal/store). The one
// route table in New is the authoritative listing (DESIGN.md §7 renders it),
// and every request crosses dispatch — accounting, method gate, admission,
// store and name resolution, the single query parse, the error envelope —
// before its handler runs. Request-scoped options travel in the query string.
//
// Heavy endpoints (compress, decompress, profile) are admission-controlled
// by a permit semaphore: past MaxInflight concurrent requests the service
// answers 429 instead of queueing unboundedly. Estimate and solve are cheap
// and always admitted. Failures return a typed JSON error envelope; the
// container error taxonomy maps onto stable codes (see errors.go).
package service

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rqm"
	"rqm/internal/grid"
	"rqm/internal/store"
)

// DefaultStreamThreshold is the size at which compress switches to the
// chunked streaming pipeline (64 MiB): a request body's here, an input
// file's in rqc, which routes by this same constant locally and remotely.
const DefaultStreamThreshold = 64 << 20

// maxBufferedBody caps bodies the non-streaming handlers materialize, so a
// single oversized upload cannot exhaust memory (1 GiB).
const maxBufferedBody = 1 << 30

// Config assembles a Service.
type Config struct {
	// Engine is the configured compression engine requests derive from
	// (nil = rqm.NewEngine defaults: prediction codec, REL 1e-3).
	Engine *rqm.Engine
	// Model tunes the ratio-quality model behind /v1/profile.
	Model rqm.ModelOptions
	// MaxInflight bounds concurrently admitted heavy requests
	// (0 = 4 x engine concurrency).
	MaxInflight int
	// ProfileCacheSize bounds the LRU profile cache entries (0 = 128).
	ProfileCacheSize int
	// Store is the persistent dataset archive behind the /v1/datasets
	// endpoints (nil = dataset endpoints answer 501 store_disabled).
	Store *store.Store
}

// Service is the HTTP handler set. Construct with New; a Service is safe for
// concurrent use.
type Service struct {
	eng      *rqm.Engine
	model    rqm.ModelOptions
	cache    *profileCache
	store    *store.Store
	sem      chan struct{}
	routes   []route
	mux      *http.ServeMux
	start    time.Time
	draining atomic.Bool

	// mu guards the served state: m, the /metrics counters, and scrub, the
	// current (or last) scrub pass (see scrub.go). Every writer updates them
	// under it and Snapshot copies m under it, so a /metrics scrape is one
	// consistent cut — never a torn mix where e.g. an error is counted but
	// its request is not.
	mu    sync.Mutex
	m     MetricsSnapshot
	scrub ScrubStatusResponse
}

// New builds a Service from cfg.
func New(cfg Config) (*Service, error) {
	eng := cfg.Engine
	if eng == nil {
		var err error
		if eng, err = rqm.NewEngine(); err != nil {
			return nil, err
		}
	}
	inflight := cfg.MaxInflight
	if inflight == 0 {
		inflight = 4 * eng.Concurrency()
	}
	if inflight < 1 {
		inflight = 1
	}
	cacheSize := cfg.ProfileCacheSize
	if cacheSize == 0 {
		cacheSize = 128
	}
	s := &Service{
		eng:   eng,
		model: cfg.Model,
		cache: newProfileCache(cacheSize),
		store: cfg.Store,
		sem:   make(chan struct{}, inflight),
		mux:   http.NewServeMux(),
		start: time.Now(),
		scrub: ScrubStatusResponse{State: "idle"},
	}
	s.routes = []route{
		{http.MethodGet, "/healthz", light, false, s.handleHealthz},
		{http.MethodGet, "/metrics", light, false, s.handleMetrics},
		{http.MethodPost, "/v1/compress", heavy, false, s.handleCompress},
		{http.MethodPost, "/v1/decompress", heavy, false, s.handleDecompress},
		{http.MethodPost, "/v1/profile", heavy, false, s.handleProfile},
		{http.MethodGet, "/v1/estimate", light, false, s.handleEstimate},
		{http.MethodGet, "/v1/solve", light, false, s.handleSolve},
		// Dataset archive. Registered unconditionally — without a store they
		// answer a typed 501 — so clients get a stable error, not a bare 404.
		{http.MethodGet, "/v1/datasets", light, true, s.handleDatasetList},
		{http.MethodPost, "/v1/datasets/{name}", heavy, true, s.handleDatasetPut},
		// GET admits itself: a ?manifest=1 stat is a metadata read that must
		// not burn (or be rejected for) a compress-class permit.
		{http.MethodGet, "/v1/datasets/{name}", selfAdmitting, true, s.handleDatasetGet},
		{http.MethodDelete, "/v1/datasets/{name}", light, true, s.handleDatasetDelete},
		{http.MethodGet, "/v1/datasets/{name}/slice", heavy, true, s.handleDatasetSlice},
		{http.MethodPost, "/v1/datasets/{name}/recompact", heavy, true, s.handleDatasetRecompact},
		// Progressive quality: promote installs a residual layer over the lossy
		// base (body = the original field), demote drops it. See residual.go.
		{http.MethodPost, "/v1/datasets/{name}/promote", heavy, true, s.handleDatasetPromote},
		{http.MethodPost, "/v1/datasets/{name}/demote", heavy, true, s.handleDatasetDemote},
		// Replication plumbing: GET serves a dataset's raw-put frame (manifest,
		// container, residual) and POST admits one verbatim, so replica repair
		// and shard rebalancing never decompress or recompress. See
		// handleDatasetRawGet and handleDatasetRawPut.
		{http.MethodGet, "/v1/datasets/{name}/raw", heavy, true, s.handleDatasetRawGet},
		{http.MethodPost, "/v1/datasets/{name}/raw", heavy, true, s.handleDatasetRawPut},
		// Integrity: POST starts one background scrub pass over the archive
		// (progress via GET /v1/scrub/status). Light — the pass itself runs
		// outside the admission semaphore (see scrub.go).
		{http.MethodPost, "/v1/scrub", light, true, s.handleScrubStart},
		{http.MethodGet, "/v1/scrub/status", light, true, s.handleScrubStatus},
	}
	byPattern := map[string][]route{}
	for _, rt := range s.routes {
		byPattern[rt.pattern] = append(byPattern[rt.pattern], rt)
	}
	for pattern, rs := range byPattern {
		s.mux.Handle(pattern, s.dispatch(pattern, rs))
	}
	return s, nil
}

// BeginDrain flips the service into graceful-shutdown drain: /healthz
// readiness turns 503 ("draining") while in-flight work finishes, so a
// router health probe stops sending new requests to this shard BEFORE its
// listener closes. Liveness (?live=1) stays 200 — the process is healthy,
// just leaving. Idempotent.
func (s *Service) BeginDrain() { s.draining.Store(true) }

// ServeHTTP dispatches to the endpoint handlers.
func (s *Service) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// FlushProfiles empties the profile cache (operational hook; benchmarks use
// it to force the cold path).
func (s *Service) FlushProfiles() { s.cache.purge() }

// class is a route's admission class.
type class int

const (
	// light routes are always admitted (metadata, O(sample) model answers).
	light class = iota
	// heavy routes hold one permit of the admission semaphore for their whole
	// run; dispatch claims it.
	heavy
	// selfAdmitting routes have a cheap branch and a heavy one: the handler
	// calls admit itself once it knows which it is serving.
	selfAdmitting
)

// route is one row of the service's route table (see New).
type route struct {
	method, pattern string
	class           class
	needsStore      bool
	fn              func(*request) error
}

// request is what dispatch hands a handler: the exchange plus everything the
// route table let dispatch resolve up front. q is the query string, parsed
// once — the only channel request parameters arrive through; st is non-nil
// on needsStore routes and name is the validated {name} path segment on
// routes that have one.
type request struct {
	w    http.ResponseWriter
	r    *http.Request
	q    url.Values
	st   *store.Store
	name string
}

// dispatch serves one pattern of the route table, and is the one function
// every request crosses: it counts the request, gates the method, claims the
// permit of a heavy route, resolves the store and the dataset name, parses
// the query, runs the handler, and counts and renders whatever error any of
// those steps produced.
func (s *Service) dispatch(pattern string, rs []route) http.Handler {
	methods := make([]string, len(rs))
	for i, rt := range rs {
		methods[i] = rt.method
	}
	sort.Strings(methods)
	allow := strings.Join(methods, ", ")
	named := strings.Contains(pattern, "{name}")
	serve := func(w http.ResponseWriter, r *http.Request) error {
		var rt *route
		for i := range rs {
			if rs[i].method == r.Method {
				rt = &rs[i]
			}
		}
		if rt == nil {
			w.Header().Set("Allow", allow)
			return errf(http.StatusMethodNotAllowed, "method_not_allowed",
				"%s only accepts %s", r.URL.Path, allow)
		}
		req := &request{w: w, r: r}
		if rt.class == heavy {
			release, err := s.admit(w)
			if err != nil {
				return err
			}
			defer release()
		}
		if rt.needsStore {
			if req.st = s.store; req.st == nil {
				return errf(http.StatusNotImplemented, "store_disabled",
					"this server has no dataset store (start rqserved with -store-dir)")
			}
		}
		if named {
			req.name = r.PathValue("name")
			if err := store.ValidateName(req.name); err != nil {
				return errf(http.StatusBadRequest, "bad_name", "%v", err)
			}
		}
		req.q = r.URL.Query()
		return rt.fn(req)
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.count(&s.m.Requests, 1)
		if err := serve(w, r); err != nil {
			s.count(&s.m.Errors, 1)
			writeError(w, err)
		}
	})
}

// admit claims one heavy-request permit, returning its release function —
// or the typed 429 (Retry-After set) when the service is at its limit.
// dispatch calls it for heavy routes, selfAdmitting handlers after their
// cheap branch.
func (s *Service) admit(w http.ResponseWriter) (func(), error) {
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem }, nil
	default:
		s.count(&s.m.Rejected, 1)
		w.Header().Set("Retry-After", "1")
		return nil, errf(http.StatusTooManyRequests, "too_many_requests",
			"service at its %d-request concurrency limit", cap(s.sem))
	}
}

// ---------------------------------------------------------------------------
// Request-scoped options

// engineFor derives the engine serving one request: the base engine unless
// codec options appear in the query, in which case a request-scoped engine
// is built from the base configuration plus the overrides.
func (s *Service) engineFor(q url.Values) (*rqm.Engine, error) {
	var opts []rqm.EngineOption
	if v := q.Get("codec"); v != "" {
		opts = append(opts, rqm.WithCodecName(v))
	}
	if v := q.Get("predictor"); v != "" {
		k, err := rqm.ParsePredictorKind(v)
		if err != nil {
			return nil, errf(http.StatusBadRequest, "bad_param", "predictor: %v", err)
		}
		opts = append(opts, rqm.WithPredictor(k))
	}
	if v := q.Get("mode"); v != "" {
		m, err := rqm.ParseErrorMode(v)
		if err != nil {
			return nil, errf(http.StatusBadRequest, "bad_param", "mode: %v", err)
		}
		opts = append(opts, rqm.WithMode(m))
	}
	if v := q.Get("eb"); v != "" {
		eb, err := strconv.ParseFloat(v, 64)
		if err != nil || !(eb > 0) {
			return nil, errf(http.StatusBadRequest, "bad_param", "eb: %q is not a positive number", v)
		}
		opts = append(opts, rqm.WithErrorBound(eb))
	}
	if v := q.Get("lossless"); v != "" {
		l, err := rqm.ParseLosslessKind(v)
		if err != nil {
			return nil, errf(http.StatusBadRequest, "bad_param", "lossless: %v", err)
		}
		opts = append(opts, rqm.WithLossless(l))
	}
	if len(opts) == 0 {
		return s.eng, nil
	}
	return deriveEngine(s.eng, s.model, opts...)
}

// deriveEngine builds a request-scoped engine: base's configuration, mopts
// as the model options, then the overrides.
func deriveEngine(base *rqm.Engine, mopts rqm.ModelOptions, overrides ...rqm.EngineOption) (*rqm.Engine, error) {
	o := base.Options()
	eng, err := rqm.NewEngine(append([]rqm.EngineOption{
		rqm.WithCodecName(base.Codec().Name()),
		rqm.WithMode(o.Mode),
		rqm.WithErrorBound(o.ErrorBound),
		rqm.WithPredictor(o.Predictor),
		rqm.WithLossless(o.Lossless),
		rqm.WithConcurrency(base.Concurrency()),
		rqm.WithModelOptions(mopts),
	}, overrides...)...)
	if err != nil {
		return nil, errf(http.StatusBadRequest, "bad_param", "%v", err)
	}
	return eng, nil
}

// sampleParam parses the optional sampling-rate override, a rate in (0, 1];
// 0 means not given.
func sampleParam(q url.Values) (float64, error) {
	sample, ok, err := floatParam(q, "sample")
	if err == nil && ok && (sample <= 0 || sample > 1) {
		err = errf(http.StatusBadRequest, "bad_param", "sample: %g is outside (0, 1]", sample)
	}
	return sample, err
}

// chunkParam parses the optional chunk-size override into stream options.
func chunkParam(q url.Values) ([]rqm.StreamOption, error) {
	v := q.Get("chunk")
	if v == "" {
		return nil, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 1 {
		return nil, errf(http.StatusBadRequest, "bad_param", "chunk: %q is not a positive integer", v)
	}
	return []rqm.StreamOption{rqm.WithChunkSize(n)}, nil
}

// floatParam parses an optional float parameter.
func floatParam(q url.Values, name string) (float64, bool, error) {
	v := q.Get(name)
	if v == "" {
		return 0, false, nil
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, false, errf(http.StatusBadRequest, "bad_param", "%s: %q is not a number", name, v)
	}
	return f, true, nil
}

// modelTarget resolves the one model target a request names among params.
// Where a target is required, naming none or more than one is a 400 and the
// value is the caller's to judge; where it is optional (param is then "") only
// a positive value names a target — zero means unset, as in rqm.AdaptiveBound.
func modelTarget(q url.Values, optional bool, params ...string) (param string, val float64, err error) {
	n := 0
	for _, p := range params {
		v, ok, err := floatParam(q, p)
		if err != nil {
			return "", 0, err
		}
		if ok && (v > 0 || !optional) {
			param, val, n = p, v, n+1
		}
	}
	if n > 1 || (n == 0 && !optional) {
		return "", 0, errf(http.StatusBadRequest, "bad_param",
			"want exactly one target among %s (got %d)", strings.Join(params, ", "), n)
	}
	return param, val, nil
}

// adaptiveBound is the stream policy of a target-ratio / target-psnr target.
func adaptiveBound(param string, val float64) rqm.AdaptiveBound {
	if param == "target-psnr" {
		return rqm.AdaptiveBound{TargetPSNR: val}
	}
	return rqm.AdaptiveBound{TargetRatio: val}
}

// ---------------------------------------------------------------------------
// Health and metrics

// HealthResponse is the /healthz body. Status is "ok" or "draining"; Store
// and Datasets report the shard's archive so a router can read capacity at
// probe time without a second request.
type HealthResponse struct {
	Status        string   `json:"status"`
	UptimeSeconds float64  `json:"uptime_seconds"`
	Codec         string   `json:"codec"`
	Codecs        []string `json:"codecs"`
	Store         bool     `json:"store"`
	Datasets      int      `json:"datasets"`
}

// handleHealthz serves both health probes: readiness by default (503 with
// status "draining" once BeginDrain has been called, so a router stops
// routing to a dying shard before its listener closes), and pure liveness
// with ?live=1 (200 for as long as the process can answer at all).
func (s *Service) handleHealthz(req *request) error {
	hr := &HealthResponse{
		Status:        "ok",
		UptimeSeconds: time.Since(s.start).Seconds(),
		Codec:         s.eng.Codec().Name(),
		Codecs:        rqm.CodecNames(),
		Store:         s.store != nil,
	}
	if s.store != nil {
		_, hr.Datasets = s.store.Bytes()
	}
	status := http.StatusOK
	if s.draining.Load() && req.q.Get("live") != "1" {
		hr.Status = "draining"
		status = http.StatusServiceUnavailable
	}
	return writeJSON(req.w, status, hr)
}

// MetricsSnapshot is the /metrics body: monotonic counters plus gauges. It
// is also where the counters live: a Service keeps one, bumps its fields
// with count, and serves a copy of it (see Snapshot).
type MetricsSnapshot struct {
	UptimeSeconds  float64 `json:"uptime_seconds"`
	Requests       int64   `json:"requests"`
	Errors         int64   `json:"errors"`
	Rejected       int64   `json:"rejected"`
	Inflight       int     `json:"inflight"`
	MaxInflight    int     `json:"max_inflight"`
	Compresses     int64   `json:"compresses"`
	Decompresses   int64   `json:"decompresses"`
	ProfileBuilds  int64   `json:"profile_builds"`
	ProfileHits    int64   `json:"profile_hits"`
	CacheEntries   int     `json:"cache_entries"`
	CacheEvictions int64   `json:"cache_evictions"`
	Estimates      int64   `json:"estimates"`
	Solves         int64   `json:"solves"`

	// Dataset-store counters and gauges (all zero without a store).
	StoreEnabled         bool  `json:"store_enabled"`
	DatasetPuts          int64 `json:"dataset_puts"`
	DatasetRawPuts       int64 `json:"dataset_raw_puts"`
	DatasetGets          int64 `json:"dataset_gets"`
	DatasetDeletes       int64 `json:"dataset_deletes"`
	SliceReads           int64 `json:"slice_reads"`
	Recompactions        int64 `json:"recompactions"`
	RecompactionsSkipped int64 `json:"recompactions_skipped"`
	Datasets             int   `json:"datasets"`
	StoreBytes           int64 `json:"store_bytes"`
	StoreWrites          int64 `json:"store_writes"`
	StoreChunkReads      int64 `json:"store_chunk_reads"`

	// Residual-layer counters and gauges: bytes of stored residual files
	// across the archive, bit-exact reads served, and tier transitions.
	ResidualBytes int64 `json:"residual_bytes"`
	ExactReads    int64 `json:"exact_reads"`
	Promotes      int64 `json:"promotes"`
	Demotes       int64 `json:"demotes"`

	// Partition-layer counters (zero until an adaptive-space run happens).
	AdaptiveSpaceRuns int64 `json:"adaptive_space_runs"`
	PartitionRegions  int64 `json:"partition_regions"`
	PartitionSplits   int64 `json:"partition_splits"`

	// Integrity counters (zero without a store): scrub passes completed,
	// chunk CRC verifications performed (scrub and verified reads), and
	// datasets / bytes moved to quarantine.
	ScrubRuns           int64 `json:"scrub_runs"`
	ChunksVerified      int64 `json:"chunks_verified"`
	DatasetsQuarantined int64 `json:"datasets_quarantined"`
	BytesQuarantined    int64 `json:"bytes_quarantined"`
}

// count adds delta to one counter of s.m, e.g. s.count(&s.m.Solves, 1).
func (s *Service) count(c *int64, delta int64) {
	s.mu.Lock()
	*c += delta
	s.mu.Unlock()
}

// Snapshot captures the current metrics (also served at /metrics): a copy of
// the counters, taken as one consistent cut (see mu), with the gauges filled
// in after it. The store figures are the store's own, read one by one
// outside the cut.
func (s *Service) Snapshot() MetricsSnapshot {
	s.mu.Lock()
	snap := s.m
	s.mu.Unlock()
	snap.UptimeSeconds = time.Since(s.start).Seconds()
	snap.Inflight = len(s.sem)
	snap.MaxInflight = cap(s.sem)
	snap.CacheEntries = s.cache.len()
	if s.store != nil {
		snap.StoreEnabled = true
		snap.StoreBytes, snap.Datasets = s.store.Bytes()
		snap.StoreWrites = s.store.Writes()
		snap.StoreChunkReads = s.store.ChunkReads()
		snap.ResidualBytes = s.store.ResidualBytes()
		snap.ScrubRuns, snap.ChunksVerified,
			snap.DatasetsQuarantined, snap.BytesQuarantined = s.store.ScrubStats()
	}
	return snap
}

func (s *Service) handleMetrics(req *request) error {
	// Rendered by hand rather than via writeJSON so the scrape contract is
	// explicit: a typed Content-Type (scrapers dispatch on it) and no-store
	// (a cached snapshot is a lie about a moving system).
	data, err := json.Marshal(s.Snapshot())
	if err != nil {
		return errf(http.StatusInternalServerError, "internal", "encoding metrics: %v", err)
	}
	h := req.w.Header()
	h.Set("Content-Type", "application/json; charset=utf-8")
	h.Set("Cache-Control", "no-store")
	req.w.WriteHeader(http.StatusOK)
	_, err = req.w.Write(append(data, '\n'))
	return ignoreWriteErr(err)
}

// ---------------------------------------------------------------------------
// Compress / decompress

func (s *Service) handleCompress(req *request) error {
	w, r, q := req.w, req.r, req.q
	eng, err := s.engineFor(q)
	if err != nil {
		return err
	}
	s.count(&s.m.Compresses, 1)

	target, val, err := modelTarget(q, true, "target-ratio", "target-psnr")
	if err != nil {
		return err
	}
	if target != "" || q.Get("stream") == "1" || r.ContentLength >= DefaultStreamThreshold {
		return s.compressStream(req, eng, target, val)
	}

	f, release, err := readFieldBody(r.Body)
	if err != nil {
		return err
	}
	defer release()
	res, err := eng.Compress(f)
	if err != nil {
		return errf(http.StatusUnprocessableEntity, "compress_failed", "%v", err)
	}
	h := w.Header()
	h.Set("Content-Type", "application/octet-stream")
	h.Set("X-RQM-Codec", res.Stats.Codec)
	h.Set("X-RQM-Ratio", strconv.FormatFloat(res.Stats.Ratio, 'g', 6, 64))
	h.Set("X-RQM-Bit-Rate", strconv.FormatFloat(res.Stats.BitRate, 'g', 6, 64))
	h.Set("Content-Length", strconv.Itoa(len(res.Bytes)))
	_, err = w.Write(res.Bytes)
	return ignoreWriteErr(err)
}

// compressStream pipes the request body through the chunked pipeline
// straight into the response. All validation happens before the first
// response byte; a failure after that aborts the connection, which a client
// observes as a truncated (typed-error) container.
func (s *Service) compressStream(req *request, eng *rqm.Engine, target string, val float64) error {
	w, q := req.w, req.q
	br := pooledReader(req.r.Body)
	defer releaseReader(br)
	prec, dims, err := grid.ReadHeader(br)
	if err != nil {
		return errf(http.StatusUnprocessableEntity, "bad_field", "field header: %v", err)
	}
	opts := []rqm.StreamOption{
		rqm.WithStreamShape(prec, dims...),
		rqm.WithStreamFieldName(q.Get("name")),
	}
	chunk, err := chunkParam(q)
	if err != nil {
		return err
	}
	opts = append(opts, chunk...)
	adaptive := target != ""
	adaptiveSpace := q.Get("adaptive-space") == "1"
	if adaptiveSpace && !adaptive {
		return errf(http.StatusBadRequest, "bad_param",
			"adaptive-space needs a model target (target-ratio or target-psnr)")
	}
	if adaptive {
		model := s.model
		sample, err := sampleParam(q)
		if err != nil {
			return err
		}
		if sample > 0 {
			model.SampleRate = sample
		}
		opts = append(opts,
			rqm.WithAdaptiveBound(adaptiveBound(target, val)),
			rqm.WithStreamModel(model))
		if adaptiveSpace {
			opts = append(opts, rqm.WithPartitioner(rqm.VarianceQuadtree{}))
		}
	} else if eng.Options().Mode == rqm.REL {
		// Streamed REL needs the stream-global range: the server never sees
		// the whole field at once, so the client must declare it.
		lo, hi, err := parseRangeParam(q)
		if err != nil {
			return err
		}
		opts = append(opts, rqm.WithStreamValueRange(lo, hi))
	}
	// Compressing is read-while-write: chunks stream out while the body
	// streams in, so the connection must be full-duplex (without it the
	// server closes the request body at the first response write).
	if err := http.NewResponseController(w).EnableFullDuplex(); err != nil {
		return errf(http.StatusNotImplemented, "no_full_duplex",
			"connection cannot stream: %v", err)
	}
	h := w.Header()
	h.Set("Content-Type", "application/octet-stream")
	h.Set("X-RQM-Streamed", "1")
	sw, err := eng.NewStreamWriter(w, opts...) // writes the stream header: status commits here
	if err != nil {
		return err
	}
	if _, err := io.Copy(sw, br); err != nil {
		sw.Close() // stop the pipeline goroutines before abandoning w
		panic(http.ErrAbortHandler)
	}
	if err := sw.Close(); err != nil {
		panic(http.ErrAbortHandler)
	}
	if adaptiveSpace {
		st := sw.Stats()
		s.count(&s.m.AdaptiveSpaceRuns, 1)
		s.count(&s.m.PartitionRegions, int64(st.Chunks))
		s.count(&s.m.PartitionSplits, int64(st.Splits))
	}
	return nil
}

// parseRangeParam reads value-range=lo,hi.
func parseRangeParam(q url.Values) (lo, hi float64, err error) {
	v := q.Get("value-range")
	if v == "" {
		return 0, 0, errf(http.StatusBadRequest, "rel_needs_value_range",
			"streamed REL compression needs value-range=lo,hi (or use mode=abs)")
	}
	parts := strings.SplitN(v, ",", 2)
	if len(parts) != 2 {
		return 0, 0, errf(http.StatusBadRequest, "bad_param", "value-range: want lo,hi, got %q", v)
	}
	if lo, err = strconv.ParseFloat(strings.TrimSpace(parts[0]), 64); err == nil {
		hi, err = strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
	}
	if err != nil || hi < lo {
		return 0, 0, errf(http.StatusBadRequest, "bad_param", "value-range: %q is not a valid lo,hi pair", v)
	}
	return lo, hi, nil
}

// handleDecompress streams any container — a chunked stream, or a v1
// envelope read as a stream of one chunk — back out as a .rqmf field
// without materializing it, when the container carries the shape.
func (s *Service) handleDecompress(req *request) error {
	w := req.w
	s.count(&s.m.Decompresses, 1)
	br := pooledReader(req.r.Body)
	defer releaseReader(br)
	sr, err := rqm.NewReader(br)
	if err != nil {
		return err // typed container error -> 422 envelope
	}
	// The reader stops exactly at the container's end, which under a
	// chunked request body leaves the trailing encoding unread; with
	// full-duplex enabled the server will not clean that up safely, so
	// drain to EOF before returning. Close first — it blocks until the
	// reader's feeder goroutine has stopped touching br, so the drain (which
	// also runs during the abort-handler panic unwind) never races it.
	defer func() {
		_ = sr.Close()
		_, _ = io.Copy(io.Discard, br)
	}()
	// Decompressing streams read-while-write too: see compressStream.
	if err := http.NewResponseController(w).EnableFullDuplex(); err != nil {
		return errf(http.StatusNotImplemented, "no_full_duplex",
			"connection cannot stream: %v", err)
	}
	hdr := sr.Header()
	if len(hdr.Dims) == 0 {
		// Shape unknown: materialize and emit as 1-D.
		f, err := sr.ReadAll()
		if err != nil {
			return err
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("X-RQM-Field", f.Name)
		_, err = f.WriteTo(w)
		return ignoreWriteErr(err)
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-RQM-Field", hdr.Name)
	w.Header().Set("X-RQM-Streamed", "1")
	if n, err := sr.WriteField(w); err != nil {
		if n == 0 { // the first chunk would not decode: no status is out yet
			w.Header().Del("X-RQM-Field")
			w.Header().Del("X-RQM-Streamed")
			return err
		}
		panic(http.ErrAbortHandler) // mid-stream failure: truncate, don't lie
	}
	return nil
}

// ---------------------------------------------------------------------------
// Profile / estimate / solve

// CurvePoint is one sampled point of a profile's ratio-quality curve.
type CurvePoint struct {
	RelEB   float64 `json:"rel_eb"`
	AbsEB   float64 `json:"abs_eb"`
	Ratio   Float   `json:"ratio"`
	BitRate float64 `json:"bit_rate"`
	PSNR    Float   `json:"psnr"`
	SSIM    Float   `json:"ssim"`
}

// ProfileResponse is the /v1/profile body.
type ProfileResponse struct {
	Profile   string       `json:"profile"`
	Cached    bool         `json:"cached"`
	Codec     string       `json:"codec"`
	Predictor string       `json:"predictor"`
	N         int          `json:"n"`
	Range     float64      `json:"range"`
	BuildMs   float64      `json:"build_ms"`
	Curve     []CurvePoint `json:"curve"`
}

// curvePoints samples the ratio-quality curve over relative bounds
// 1e-6..1e-1 (log-spaced), the span the paper's evaluation sweeps.
const curvePoints = 21

func profileCurve(p *rqm.Profile) []CurvePoint {
	if p.Range <= 0 {
		// A constant field has no relative-bound axis to sweep.
		return nil
	}
	out := make([]CurvePoint, 0, curvePoints)
	for i := 0; i < curvePoints; i++ {
		t := float64(i) / float64(curvePoints-1)
		rel := math.Pow(10, -6+5*t) // 1e-6 -> 1e-1
		est := p.EstimateAt(rel * p.Range)
		out = append(out, CurvePoint{
			RelEB:   rel,
			AbsEB:   est.AbsErrorBound,
			Ratio:   Float(est.Ratio),
			BitRate: est.TotalBitRate,
			PSNR:    Float(est.PSNR),
			SSIM:    Float(est.SSIM),
		})
	}
	return out
}

func (s *Service) handleProfile(req *request) error {
	w := req.w
	eng, err := s.engineFor(req.q)
	if err != nil {
		return err
	}
	body, err := readBufferedBody(req.r.Body, req.r.ContentLength)
	if err != nil {
		return err
	}
	sample, seed, err := sampleSeed(req.q)
	if err != nil {
		return err
	}
	id := profileKey(body, eng, sample, seed)
	if cp, ok := s.cache.get(id); ok {
		s.count(&s.m.ProfileHits, 1)
		return writeJSON(w, http.StatusOK, profileResponse(cp, true))
	}

	f, release, err := readFieldBody(bytes.NewReader(body))
	if err != nil {
		return err
	}
	start := time.Now()
	p, err := s.profile(eng, f, sample, seed)
	release() // a Profile keeps sampled errors, not the field
	if err != nil {
		return err
	}
	s.count(&s.m.ProfileBuilds, 1)
	cp := &cachedProfile{
		ID:        id,
		Codec:     eng.Codec().Name(),
		Predictor: eng.Options().Predictor.String(),
		Profile:   p,
		BuildTime: time.Since(start),
		CreatedAt: time.Now(),
	}
	s.count(&s.m.CacheEvictions, int64(s.cache.put(cp)))
	return writeJSON(w, http.StatusOK, profileResponse(cp, false))
}

// sampleSeed parses the sampling overrides of a profiling request; zero
// means not given.
func sampleSeed(q url.Values) (sample float64, seed uint64, err error) {
	if sample, err = sampleParam(q); err != nil {
		return 0, 0, err
	}
	if v := q.Get("seed"); v != "" {
		if seed, err = strconv.ParseUint(v, 10, 64); err != nil {
			return 0, 0, errf(http.StatusBadRequest, "bad_param", "seed: %q is not an unsigned integer", v)
		}
	}
	return sample, seed, nil
}

// profile runs the sampling pass for one request. Profiles always run on a
// request-scoped clone so the service's model options (and any sample/seed
// overrides) actually reach the sampling pass — the base engine carries its
// own, unrelated model options.
func (s *Service) profile(eng *rqm.Engine, f *rqm.Field, sample float64, seed uint64) (*rqm.Profile, error) {
	mopts := s.model
	if sample > 0 {
		mopts.SampleRate = sample
	}
	if seed > 0 {
		mopts.Seed = seed
	}
	peng, err := deriveEngine(eng, mopts)
	if err != nil {
		return nil, err
	}
	p, err := peng.Profile(f)
	if err != nil {
		return nil, errf(http.StatusUnprocessableEntity, "profile_failed", "%v", err)
	}
	return p, nil
}

func profileResponse(cp *cachedProfile, cached bool) *ProfileResponse {
	return &ProfileResponse{
		Profile:   cp.ID,
		Cached:    cached,
		Codec:     cp.Codec,
		Predictor: cp.Predictor,
		N:         cp.Profile.N,
		Range:     cp.Profile.Range,
		BuildMs:   float64(cp.BuildTime.Microseconds()) / 1e3,
		Curve:     profileCurve(cp.Profile),
	}
}

// profileKey content-addresses a profile: the field bytes plus every option
// that changes the sampling product or the modeled curve (predictor,
// lossless stage, sampling rate, seed, codec). Identical
// uploads under identical options always map to the same ID; any option
// that changes the answer changes the ID.
func profileKey(body []byte, eng *rqm.Engine, sample float64, seed uint64) string {
	h := sha256.New()
	h.Write(body)
	o := eng.Options()
	var meta [32]byte
	binary.LittleEndian.PutUint64(meta[0:], uint64(o.Predictor))
	binary.LittleEndian.PutUint64(meta[8:], uint64(o.Lossless))
	binary.LittleEndian.PutUint64(meta[16:], math.Float64bits(sample))
	binary.LittleEndian.PutUint64(meta[24:], seed)
	h.Write(meta[:])
	io.WriteString(h, eng.Codec().Name())
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// EstimateResponse is the /v1/estimate body: the model's answer at one
// bound, straight from the cached profile — no compression run.
type EstimateResponse struct {
	Profile string  `json:"profile"`
	AbsEB   float64 `json:"abs_eb"`
	RelEB   float64 `json:"rel_eb"`
	Ratio   Float   `json:"ratio"`
	BitRate float64 `json:"bit_rate"`
	PSNR    Float   `json:"psnr"`
	SSIM    Float   `json:"ssim"`
	P0      float64 `json:"p0"`
}

func (s *Service) handleEstimate(req *request) error {
	cp, err := s.lookupProfile(req.q)
	if err != nil {
		return err
	}
	eb, ok, err := floatParam(req.q, "eb")
	if err != nil {
		return err
	}
	if !ok || !(eb > 0) {
		return errf(http.StatusBadRequest, "bad_param", "estimate needs a positive eb parameter")
	}
	abs := eb
	if mode := req.q.Get("mode"); mode == "" || strings.EqualFold(mode, "rel") {
		if cp.Profile.Range <= 0 {
			return errf(http.StatusBadRequest, "bad_param",
				"profile %s has zero value range (constant field); use mode=abs", cp.ID)
		}
		abs = eb * cp.Profile.Range // REL is the default, matching the engine default
	} else if !strings.EqualFold(mode, "abs") {
		return errf(http.StatusBadRequest, "bad_param", "mode: want abs or rel, got %q", mode)
	}
	s.count(&s.m.Estimates, 1)
	est := cp.Profile.EstimateAt(abs)
	return writeJSON(req.w, http.StatusOK, &EstimateResponse{
		Profile: cp.ID,
		AbsEB:   abs,
		RelEB:   relOf(abs, cp.Profile.Range),
		Ratio:   Float(est.Ratio),
		BitRate: est.TotalBitRate,
		PSNR:    Float(est.PSNR),
		SSIM:    Float(est.SSIM),
		P0:      est.P0,
	})
}

// SolveResponse is the /v1/solve body: the inverse problem's error bound and
// the modeled outcome at that bound.
type SolveResponse struct {
	Profile  string  `json:"profile"`
	Target   string  `json:"target"`
	TargetAt float64 `json:"target_value"`
	AbsEB    float64 `json:"abs_eb"`
	RelEB    float64 `json:"rel_eb"`
	Ratio    Float   `json:"ratio"`
	BitRate  float64 `json:"bit_rate"`
	PSNR     Float   `json:"psnr"`
	SSIM     Float   `json:"ssim"`
}

func (s *Service) handleSolve(req *request) error {
	cp, err := s.lookupProfile(req.q)
	if err != nil {
		return err
	}
	target, val, err := modelTarget(req.q, false, "target-ratio", "target-psnr", "target-bitrate")
	if err != nil {
		return err
	}
	s.count(&s.m.Solves, 1)
	solve := cp.Profile.ErrorBoundForRatio
	switch target {
	case "target-psnr":
		solve = cp.Profile.ErrorBoundForPSNR
	case "target-bitrate":
		solve = cp.Profile.ErrorBoundForBitRate
	}
	abs, err := solve(val)
	if err != nil {
		return errf(http.StatusBadRequest, "unsolvable", "%v", err)
	}
	est := cp.Profile.EstimateAt(abs)
	return writeJSON(req.w, http.StatusOK, &SolveResponse{
		Profile:  cp.ID,
		Target:   strings.TrimPrefix(target, "target-"),
		TargetAt: val,
		AbsEB:    abs,
		RelEB:    relOf(abs, cp.Profile.Range),
		Ratio:    Float(est.Ratio),
		BitRate:  est.TotalBitRate,
		PSNR:     Float(est.PSNR),
		SSIM:     Float(est.SSIM),
	})
}

// lookupProfile resolves the profile query parameter against the cache.
func (s *Service) lookupProfile(q url.Values) (*cachedProfile, error) {
	id := q.Get("profile")
	if id == "" {
		return nil, errf(http.StatusBadRequest, "bad_param", "missing profile parameter")
	}
	cp, ok := s.cache.get(id)
	if !ok {
		return nil, errf(http.StatusNotFound, "profile_not_found",
			"profile %q is not cached (it may have been evicted): re-POST /v1/profile", id)
	}
	return cp, nil
}

// ---------------------------------------------------------------------------
// Helpers

// readerPool recycles the 1 MiB buffered readers that request bodies stream
// through: on the one container read that is not a stored dataset's (POST
// /v1/decompress) and on the write paths (a raw put, a promotion's body, a
// streamed POST /v1/compress), so no request allocates a reader of its own.
// A stored dataset is read by the store's chunk walk instead.
var readerPool = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, 1<<20) }}

// pooledReader returns a pooled buffered reader over r. The caller hands it
// back with releaseReader once nothing — no stream.Reader feeder either —
// reads from it any more.
func pooledReader(r io.Reader) *bufio.Reader {
	br := readerPool.Get().(*bufio.Reader)
	br.Reset(r)
	return br
}

// releaseReader returns a pooledReader buffer to the pool.
func releaseReader(br *bufio.Reader) {
	br.Reset(nil)
	readerPool.Put(br)
}

// ReadBody is io.ReadAll for a body expected to be n bytes long, as a
// request declares in its Content-Length (n < 0: unknown, read as
// io.ReadAll reads). A body of n bytes lands in one buffer of n bytes, read
// once, instead of one grown from 512 bytes by a copy per doubling. n
// alone reserves no more than grid.MaxPrealloc float64s' worth: beyond
// that, and beyond n, the buffer grows only as bytes arrive, so a false
// Content-Length cannot drive a huge allocation from a tiny body.
func ReadBody(r io.Reader, n int64) ([]byte, error) {
	if n < 0 {
		return io.ReadAll(r)
	}
	// One byte past n: the read that finds the end has room to land, so an
	// honest body never grows the buffer.
	b := make([]byte, 0, min(n, 8*grid.MaxPrealloc)+1)
	for {
		m, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+m]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
	}
}

// readBufferedBody materializes a request body of declared length n (see
// ReadBody) up to maxBufferedBody, answering 413 — not a misleading
// truncation error — beyond the cap.
func readBufferedBody(r io.Reader, n int64) ([]byte, error) {
	var body []byte
	if n <= maxBufferedBody {
		var err error
		if body, err = ReadBody(io.LimitReader(r, maxBufferedBody+1), n); err != nil {
			return nil, errf(http.StatusBadRequest, "read_failed", "%v", err)
		}
	}
	if n > maxBufferedBody || len(body) > maxBufferedBody {
		return nil, errf(http.StatusRequestEntityTooLarge, "payload_too_large",
			"body exceeds the %d-byte buffered limit; use the streaming path", maxBufferedBody)
	}
	return body, nil
}

// fieldPool recycles the sample slices request fields parse into (and a
// recompaction's exact original decodes into), so a warm write allocates
// no slice as long as its field.
var fieldPool = sync.Pool{New: func() any { return new([]float64) }}

// pooledValues returns a pooled sample slice and the release that hands it
// back, keeping vals — the slice as the caller last grew it — for the next
// taker. The caller releases once nothing reads the values any more.
func pooledValues() (buf []float64, release func(vals []float64)) {
	p := fieldPool.Get().(*[]float64)
	return *p, func(vals []float64) {
		*p = vals[:0]
		fieldPool.Put(p)
	}
}

// readFieldBody parses a .rqmf field from a request body into a pooled
// sample slice. release hands the slice back; the caller calls it once
// nothing — no stream worker, no residual builder, no response write —
// reads the field any more.
func readFieldBody(r io.Reader) (f *rqm.Field, release func(), err error) {
	buf, put := pooledValues()
	f, err = grid.ReadInto(io.LimitReader(r, maxBufferedBody), buf)
	if err != nil {
		put(buf)
		return nil, nil, errf(http.StatusUnprocessableEntity, "bad_field",
			"body is not a .rqmf field: %v", err)
	}
	return f, func() { put(f.Data) }, nil
}

// relOf is abs/range, guarded for constant fields.
func relOf(abs, rng float64) float64 {
	if rng <= 0 {
		return 0
	}
	return abs / rng
}

// Float is a JSON number that serializes non-finite values as null: JSON
// has no Inf/NaN, and a perfectly reconstructable field's modeled PSNR is
// legitimately +Inf. Decoding null leaves the field at zero.
type Float float64

// MarshalJSON emits null for non-finite values.
func (f Float) MarshalJSON() ([]byte, error) {
	v := float64(f)
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return []byte("null"), nil
	}
	return json.Marshal(v)
}

// writeJSON renders one success body. Encoding happens into a buffer first,
// so a marshalling failure surfaces as a typed 500 instead of a committed
// 200 with a broken body.
func writeJSON(w http.ResponseWriter, status int, v interface{}) error {
	data, err := json.Marshal(v)
	if err != nil {
		return errf(http.StatusInternalServerError, "internal", "encoding response: %v", err)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, err = w.Write(append(data, '\n'))
	return ignoreWriteErr(err)
}

// ignoreWriteErr swallows errors that occur while writing a response body:
// the status is already committed, so the only observable effect is the
// client's own disconnect.
func ignoreWriteErr(error) error { return nil }
