// Package router implements the stateless cluster tier in front of a fleet
// of rqserved shards. Datasets are placed on a consistent-hash ring with
// virtual nodes; each dataset lives on R replicas (mutate on one, raw-sync
// to the rest, majority quorum on puts; read-from-any-healthy with
// failover). The router holds
// no durable state of its own — placement is a pure function of (shard
// list, vnodes, name), health is re-learned by probing, and divergent
// replicas are arbitrated by the manifests' (created_at, generation)
// version order, so any number of routers can front the same shards.
package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rqm/internal/poison"
	"rqm/internal/service"
)

// Defaults for zero values in Config.
const (
	defaultReplicas      = 2
	defaultVNodes        = 64
	defaultProbeInterval = 2 * time.Second
	defaultFailAfter     = 3
	defaultMaxBodyBytes  = 1 << 30
	defaultShardTimeout  = 30 * time.Second
)

// errBodyLimit caps how much of a shard error/success body the router
// buffers when it must inspect or replay it (quorum writes, fan-outs).
const errBodyLimit = 1 << 20

// Config configures a Router.
type Config struct {
	// Shards lists the rqserved base URLs (scheme://host:port, no trailing
	// slash) that form the ring. Order matters: ring placement hashes the
	// shard's position in this list, so a stable order across router
	// restarts (and across multiple routers) keeps placements stable.
	Shards []string
	// Replicas is R, the number of shards each dataset lives on
	// (default 2, capped at len(Shards)).
	Replicas int
	// VNodes is the number of virtual nodes per shard (default 64).
	VNodes int
	// ProbeInterval is the health-probe period (default 2s). Negative
	// disables the background prober (tests drive ProbeNow directly).
	ProbeInterval time.Duration
	// FailAfter is how many consecutive probe failures mark a shard down
	// (default 3). Passive transport errors mark down immediately.
	FailAfter int
	// MaxBodyBytes caps buffered write bodies (default 1 GiB).
	MaxBodyBytes int64
	// ShardTimeout bounds how long a shard may take to dial and to return
	// response HEADERS on any proxied request (default 30s; negative
	// disables). It is deliberately streaming-aware: a shard slowly sending
	// a large body is fine — only a shard that sits silent before
	// committing a response trips it, so a hung shard triggers failover
	// instead of stalling the proxied read forever.
	ShardTimeout time.Duration
	// Client is the outbound HTTP client (default: http.DefaultTransport's
	// pooling with ShardTimeout applied as dial + response-header budget;
	// per-request contexts additionally bound probe time). Supplying a
	// Client overrides ShardTimeout entirely.
	Client *http.Client
}

// Router proxies the dataset API across the shard fleet.
type Router struct {
	cfg          Config
	ring         *ring
	shards       []*shardState
	hc           *http.Client
	ownTransport *http.Transport // set when the router built its own client
	mux          *http.ServeMux
	start        time.Time
	stop         chan struct{}
	closed       sync.Once

	// repairing dedupes in-flight read-repairs by dataset name, so a burst
	// of reads against a corrupt replica schedules one repair, not one per
	// request.
	repairMu  sync.Mutex
	repairing map[string]bool

	// mutating serializes replicated mutations and replica syncs per dataset
	// name, striped by name hash (see lockName).
	mutating [64]sync.Mutex

	// mu guards m, the /metrics counters: every writer bumps them under it
	// and Snapshot copies them under it, so a scrape is one consistent cut.
	mu sync.Mutex
	m  Metrics
}

// New validates cfg, builds the ring, and starts the health prober (unless
// ProbeInterval < 0). Callers own Close.
func New(cfg Config) (*Router, error) {
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("router: at least one shard required")
	}
	seen := map[string]bool{}
	for i, s := range cfg.Shards {
		s = strings.TrimRight(s, "/")
		if s == "" {
			return nil, fmt.Errorf("router: empty shard URL at index %d", i)
		}
		u, err := url.Parse(s)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("router: shard %q is not an absolute URL", cfg.Shards[i])
		}
		if seen[s] {
			return nil, fmt.Errorf("router: duplicate shard %q", s)
		}
		seen[s] = true
		cfg.Shards[i] = s
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = defaultReplicas
	}
	if cfg.Replicas > len(cfg.Shards) {
		cfg.Replicas = len(cfg.Shards)
	}
	if cfg.VNodes <= 0 {
		cfg.VNodes = defaultVNodes
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = defaultProbeInterval
	}
	if cfg.FailAfter <= 0 {
		cfg.FailAfter = defaultFailAfter
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = defaultMaxBodyBytes
	}
	if cfg.ShardTimeout == 0 {
		cfg.ShardTimeout = defaultShardTimeout
	}
	rt := &Router{
		cfg:       cfg,
		ring:      newRing(len(cfg.Shards), cfg.VNodes),
		hc:        cfg.Client,
		start:     time.Now(),
		stop:      make(chan struct{}),
		repairing: map[string]bool{},
	}
	if rt.hc == nil {
		rt.ownTransport = shardTransport(cfg.ShardTimeout)
		rt.hc = &http.Client{Transport: rt.ownTransport}
	}
	for _, s := range cfg.Shards {
		// Shards start healthy: an idle cluster must route immediately, and
		// the first failed request or probe corrects optimism within one
		// round-trip.
		rt.shards = append(rt.shards, &shardState{url: s, st: ShardStatus{URL: s, Healthy: true}})
	}
	rt.mux = http.NewServeMux()
	// The route table: pattern -> method -> handler.
	routes := map[string]map[string]http.HandlerFunc{
		"/healthz":                      {http.MethodGet: rt.handleHealthz},
		"/metrics":                      {http.MethodGet: rt.handleMetrics},
		"/v1/cluster/status":            {http.MethodGet: rt.handleClusterStatus},
		"/v1/cluster/rebalance":         {http.MethodPost: rt.handleRebalance},
		"/v1/datasets":                  {http.MethodGet: rt.handleList},
		"/v1/datasets/{name}":           {http.MethodPost: rt.handlePut, http.MethodGet: rt.handleGet, http.MethodDelete: rt.handleDelete},
		"/v1/datasets/{name}/slice":     {http.MethodGet: rt.handleSlice},
		"/v1/datasets/{name}/recompact": {http.MethodPost: rt.handleRecompact},
		"/v1/datasets/{name}/promote":   {http.MethodPost: rt.handlePromote},
		"/v1/datasets/{name}/demote":    {http.MethodPost: rt.handleDemote},
	}
	for pattern, fns := range routes {
		rt.mux.Handle(pattern, rt.dispatch(fns))
	}
	rt.mux.HandleFunc("/", rt.handleNotRoutable)
	if cfg.ProbeInterval > 0 {
		go rt.probeLoop()
	}
	return rt, nil
}

// shardTransport builds the router's outbound transport: the default
// transport's connection pooling plus the shard timeout applied where it is
// streaming-safe — on the dial and on time-to-response-headers, never on
// body transfer. (http.Client.Timeout would be wrong here: it covers the
// whole exchange and would kill long container streams mid-body.)
func shardTransport(timeout time.Duration) *http.Transport {
	tr, ok := http.DefaultTransport.(*http.Transport)
	if ok {
		tr = tr.Clone()
	} else {
		tr = &http.Transport{}
	}
	if timeout > 0 {
		tr.ResponseHeaderTimeout = timeout
		tr.DialContext = (&net.Dialer{Timeout: timeout, KeepAlive: 30 * time.Second}).DialContext
	}
	return tr
}

// Close stops the background prober and releases pooled shard connections.
// Idempotent.
func (rt *Router) Close() {
	rt.closed.Do(func() {
		close(rt.stop)
		if rt.ownTransport != nil {
			rt.ownTransport.CloseIdleConnections()
		}
	})
}

// Quorum is the write majority: more than half of R.
func (rt *Router) Quorum() int { return rt.cfg.Replicas/2 + 1 }

func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rt.count(&rt.m.Requests, 1)
	rt.mux.ServeHTTP(w, r)
}

// count adds delta to one counter of rt.m, e.g. rt.count(&rt.m.Failovers, 1).
func (rt *Router) count(c *int64, delta int64) {
	rt.mu.Lock()
	*c += delta
	rt.mu.Unlock()
}

// dispatch serves one pattern of the route table by method. A method the
// pattern does not register answers the shard's typed 405, Allow listing the
// ones it does, so a wrong method reads the same through the router as on a
// shard.
func (rt *Router) dispatch(fns map[string]http.HandlerFunc) http.HandlerFunc {
	methods := make([]string, 0, len(fns))
	for m := range fns {
		methods = append(methods, m)
	}
	sort.Strings(methods)
	allow := strings.Join(methods, ", ")
	return func(w http.ResponseWriter, r *http.Request) {
		if fn := fns[r.Method]; fn != nil {
			fn(w, r)
			return
		}
		w.Header().Set("Allow", allow)
		rt.writeErr(w, http.StatusMethodNotAllowed, "method_not_allowed", "%s only accepts %s", r.URL.Path, allow)
	}
}

// ---------------------------------------------------------------------------
// Placement

// candidates returns the shard states in ring order for name, healthy ones
// first (each group keeps ring order). Reads walk this list; writes take
// the first R healthy entries.
func (rt *Router) candidates(name string) (healthy, down []*shardState) {
	for _, idx := range rt.ring.sequence(name) {
		sh := rt.shards[idx]
		if sh.isHealthy() {
			healthy = append(healthy, sh)
		} else {
			down = append(down, sh)
		}
	}
	return healthy, down
}

// healthyOf keeps the shards currently marked healthy, in order.
func healthyOf(shards []*shardState) (healthy []*shardState) {
	for _, sh := range shards {
		if sh.isHealthy() {
			healthy = append(healthy, sh)
		}
	}
	return healthy
}

// writeTargets is the current write set for name — also where the rebalancer
// says the dataset belongs right now: the first R healthy shards in ring
// order. When replicas of the ideal set are down, their ring successors
// stand in (sloppy placement) so writes stay available through an outage; a
// later rebalance moves the data home.
func (rt *Router) writeTargets(name string) []*shardState {
	healthy, _ := rt.candidates(name)
	return healthy[:min(len(healthy), rt.cfg.Replicas)]
}

// ---------------------------------------------------------------------------
// Shared proxy plumbing

// datasetPath builds the shard-side path for a dataset name, re-escaping it
// (PathValue hands back the decoded form).
func datasetPath(name string) string { return "/v1/datasets/" + url.PathEscape(name) }

// errStatus summarizes a non-2xx shard response, preferring the typed
// envelope's message.
func errStatus(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, errBodyLimit))
	var eb service.ErrorBody
	if json.Unmarshal(body, &eb) == nil && eb.Error.Code != "" {
		return fmt.Errorf("shard returned %d %s: %s", resp.StatusCode, eb.Error.Code, eb.Error.Message)
	}
	return fmt.Errorf("shard returned status %d", resp.StatusCode)
}

// writeJSON mirrors the shard-side envelope conventions.
func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// writeErr emits the same typed error envelope the shards use, so clients
// see one error schema whether they talk to a shard or the router.
func (rt *Router) writeErr(w http.ResponseWriter, status int, code, format string, args ...interface{}) {
	rt.count(&rt.m.Errors, 1)
	var eb service.ErrorBody
	eb.Error.Code = code
	eb.Error.Message = fmt.Sprintf(format, args...)
	writeJSON(w, status, &eb)
}

// Headers that cross the proxy besides the X-RQM-* family: content
// negotiation on the way to a shard, body metadata on the way back.
var (
	proxyHeaders = []string{"Content-Type", "Accept"}
	relayHeaders = []string{"Content-Type", "Content-Length", "Retry-After"}
)

// copyHeaders copies the named headers plus every X-RQM-* annotation.
func copyHeaders(dst, src http.Header, names []string) {
	for _, k := range names {
		if v := src.Get(k); v != "" {
			dst.Set(k, v)
		}
	}
	for k, vs := range src {
		if strings.HasPrefix(k, "X-Rqm-") {
			dst[k] = vs
		}
	}
}

// shardRequest builds an outbound request to one shard, carrying the query
// string and proxy headers from the inbound request.
func shardRequest(ctx context.Context, method string, sh *shardState, path, rawQuery string, hdr http.Header, body io.Reader) (*http.Request, error) {
	u := sh.url + path
	if rawQuery != "" {
		u += "?" + rawQuery
	}
	req, err := http.NewRequestWithContext(ctx, method, u, body)
	if err != nil {
		return nil, err
	}
	if hdr != nil {
		copyHeaders(req.Header, hdr, proxyHeaders)
	}
	return req, nil
}

// send issues one request to sh. A transport error marks the shard down on
// the spot — the caller just proved it unreachable — unless the request's own
// context is already done, which says nothing about the shard.
func (rt *Router) send(sh *shardState, req *http.Request) (*http.Response, error) {
	resp, err := rt.hc.Do(req)
	if err != nil && req.Context().Err() == nil {
		sh.markUnreachable(err)
	}
	return resp, err
}

// corruptCodes are the shard error codes that mean "this replica's stored
// copy is damaged" — the read-repair trigger — as opposed to a bad request
// or an unavailable shard.
var corruptCodes = map[string]bool{
	"corrupt_dataset":  true,
	"manifest_corrupt": true,
}

// envelopeCode extracts the stable error code from a buffered shard error
// body ("" when the body is not the typed envelope).
func envelopeCode(body []byte) string {
	var eb service.ErrorBody
	if json.Unmarshal(body, &eb) == nil {
		return eb.Error.Code
	}
	return ""
}

// proxyRead streams a GET from the first candidate that can serve it.
// Transport errors and 5xx responses fail over to the next replica (the
// shard is marked down on transport errors so subsequent requests skip it);
// a 404 keeps trying — with R>1 a lagging replica may miss a dataset its
// peer holds — and only becomes the answer when no replica has it.
//
// Read-repair: a replica answering with a stored-corruption code (the
// shard's verify-before-serve turns rot into a typed corrupt_dataset /
// manifest_corrupt instead of a truncated body) also fails over — the
// client still gets a clean answer from a healthy peer — and is remembered;
// after a successful serve the good replica's container is asynchronously
// re-replicated over each remembered bad copy through the framed raw-put
// path. Other 4xx responses (bad arguments, a plain 422 on client input)
// are the request's own answer and are relayed as-is.
func (rt *Router) proxyRead(w http.ResponseWriter, r *http.Request, name, path string) {
	healthy, down := rt.candidates(name)
	cands := append(healthy, down...)
	if len(cands) == 0 {
		rt.writeErr(w, http.StatusServiceUnavailable, "no_shards", "no shards configured")
		return
	}
	sawNotFound := false
	var corrupt []*shardState // replicas whose stored copy tripped verification
	for i, sh := range cands {
		req, err := shardRequest(r.Context(), http.MethodGet, sh, path, r.URL.RawQuery, r.Header, nil)
		if err != nil {
			rt.writeErr(w, http.StatusBadGateway, "proxy_failed", "%v", err)
			return
		}
		resp, err := rt.send(sh, req)
		if err != nil {
			if r.Context().Err() != nil {
				rt.writeErr(w, http.StatusBadGateway, "proxy_failed", "%v", r.Context().Err())
				return
			}
			rt.count(&rt.m.Failovers, 1)
			continue
		}
		switch {
		case resp.StatusCode >= 500 || resp.StatusCode == http.StatusUnprocessableEntity:
			// Both can carry a corruption verdict (422 corrupt_dataset, 500
			// manifest_corrupt); buffer the envelope to tell. A plain 422 —
			// the request's own fault, e.g. undecodable client input — is
			// final and relayed; everything else fails over.
			body, _ := io.ReadAll(io.LimitReader(resp.Body, errBodyLimit))
			resp.Body.Close()
			code := envelopeCode(body)
			if corruptCodes[code] {
				corrupt = append(corrupt, sh)
			} else if resp.StatusCode == http.StatusUnprocessableEntity {
				if i > 0 {
					w.Header().Set("X-RQM-Failover", strconv.Itoa(i))
				}
				w.Header().Set("X-RQM-Shard", sh.url)
				rt.count(&rt.m.Errors, 1)
				relayBuffered(w, shardResult{status: resp.StatusCode, header: resp.Header, body: body})
				return
			}
			rt.count(&rt.m.Failovers, 1)
			continue
		case resp.StatusCode == http.StatusNotFound:
			resp.Body.Close()
			sawNotFound = true
			continue
		default:
			if i > 0 {
				w.Header().Set("X-RQM-Failover", strconv.Itoa(i))
			}
			w.Header().Set("X-RQM-Shard", sh.url)
			copyHeaders(w.Header(), resp.Header, relayHeaders)
			w.WriteHeader(resp.StatusCode)
			_, _ = io.Copy(w, resp.Body)
			resp.Body.Close()
			if resp.StatusCode < 300 && len(corrupt) > 0 {
				rt.scheduleReadRepair(sh, corrupt, name)
			}
			return
		}
	}
	switch {
	case len(corrupt) > 0:
		// Every replica that holds the dataset holds damaged bytes: surface
		// the verdict, not a generic gateway error (and not a 404 — a corrupt
		// copy is proof the dataset exists). Retrying will not help;
		// restoring from elsewhere will.
		rt.writeErr(w, http.StatusUnprocessableEntity, "corrupt_dataset",
			"every replica of dataset %q failed integrity verification", name)
	case sawNotFound:
		rt.writeErr(w, http.StatusNotFound, "dataset_not_found", "dataset %q not found on any replica", name)
	default:
		rt.writeErr(w, http.StatusBadGateway, "no_replica", "no replica could serve dataset %q", name)
	}
}

// scheduleReadRepair asynchronously re-replicates the container that just
// served a read over each replica that answered the same read with a
// corruption verdict. The copy rides converge's raw sync, whose protocol makes
// the repair safe at both ends: the source re-verifies its own chunk CRCs
// before it serves GET /raw (a corrupt "good" copy answers 422 rather than
// propagates) and the target re-verifies its committed copy before taking
// the idempotent same-version skip (?repair=1 — a rotten copy with an
// intact manifest is replaced, not "already there"). In-flight repairs are
// deduped per dataset.
func (rt *Router) scheduleReadRepair(src *shardState, bad []*shardState, name string) {
	rt.repairMu.Lock()
	if rt.repairing[name] {
		rt.repairMu.Unlock()
		return
	}
	rt.repairing[name] = true
	rt.repairMu.Unlock()
	timeout := rt.cfg.ShardTimeout
	if timeout <= 0 {
		timeout = defaultShardTimeout
	}
	go func() {
		defer func() {
			rt.repairMu.Lock()
			delete(rt.repairing, name)
			rt.repairMu.Unlock()
		}()
		// Repairs outlive the read that triggered them: a fresh context, with
		// a generous multiple of the shard timeout bounding the whole copy.
		ctx, cancel := context.WithTimeout(context.Background(), 4*timeout)
		defer cancel()
		for _, sr := range rt.converge(ctx, name, src, bad) {
			if sr.err != nil {
				rt.count(&rt.m.ReadRepairFailures, 1)
			} else {
				rt.count(&rt.m.ReadRepairs, 1)
			}
		}
	}()
}

// ---------------------------------------------------------------------------
// Dataset handlers

type shardResult struct {
	sh     *shardState
	status int
	header http.Header
	body   []byte
	err    error
}

// exchange issues one request to sh and buffers its answer (up to
// errBodyLimit); a nil body sends none.
func (rt *Router) exchange(ctx context.Context, method string, sh *shardState, path, rawQuery string, hdr http.Header, body *pooledBody) shardResult {
	res := shardResult{sh: sh}
	req, err := shardRequest(ctx, method, sh, path, rawQuery, hdr, nil)
	if err == nil {
		if body != nil {
			body.attach(req) // once built: the transport closes every copy
		}
		var resp *http.Response
		if resp, err = rt.send(sh, req); err == nil {
			res.status, res.header = resp.StatusCode, resp.Header
			res.body, _ = io.ReadAll(io.LimitReader(resp.Body, errBodyLimit))
			resp.Body.Close()
		}
	}
	res.err = err
	return res
}

// parallel runs fn for every shard of shards at once and waits for all.
func parallel(shards []*shardState, fn func(i int, sh *shardState)) {
	var wg sync.WaitGroup
	for i, sh := range shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(i, sh)
		}()
	}
	wg.Wait()
}

// relayBuffered writes one buffered shard response through to the client.
func relayBuffered(w http.ResponseWriter, res shardResult) {
	copyHeaders(w.Header(), res.header, relayHeaders)
	w.Header().Del("Content-Length") // body was re-buffered; let net/http set it
	w.WriteHeader(res.status)
	_, _ = w.Write(res.body)
}

// handlePut is the replicated write: the body is compressed once, on the
// first member of the write set that takes it, and the committed container
// reaches the other members by raw sync (mutateThenSync). The write set is
// fixed here, at request start, and quorum is counted over it: with a
// majority holding the result the primary's 201 is relayed with
// X-RQM-Replicas: "ok/attempted"; a non-2xx answer from the primary is the
// request's own verdict and is relayed as-is; anything else is the typed 502
// quorum failure.
func (rt *Router) handlePut(w http.ResponseWriter, r *http.Request) {
	rt.count(&rt.m.ProxiedPuts, 1)
	name := r.PathValue("name")
	body, ok := rt.bufferBody(w, r, rt.cfg.MaxBodyBytes)
	if !ok {
		return
	}
	defer body.release()
	set := rt.writeTargets(name)
	if len(set) == 0 {
		rt.writeErr(w, http.StatusServiceUnavailable, "no_shards", "no healthy shards")
		return
	}
	res, holders, syncErr := rt.mutateThenSync(r, name, "", body, set, set)
	quorum := min(rt.Quorum(), len(set))
	switch {
	case res.sh != nil && res.status >= 300:
		relayBuffered(w, res)
	case holders < quorum:
		rt.count(&rt.m.QuorumFailures, 1)
		msg := fmt.Sprintf("write reached %d/%d replicas, quorum is %d", holders, len(set), quorum)
		if syncErr != nil {
			msg += "; first failed sync: " + syncErr.Error()
		}
		rt.writeErr(w, http.StatusBadGateway, "quorum_failed", "%s", msg)
	default:
		w.Header().Set("X-RQM-Replicas", fmt.Sprintf("%d/%d", holders, len(set)))
		relayBuffered(w, res)
	}
}

func (rt *Router) handleGet(w http.ResponseWriter, r *http.Request) {
	rt.count(&rt.m.ProxiedGets, 1)
	name := r.PathValue("name")
	rt.proxyRead(w, r, name, datasetPath(name))
}

func (rt *Router) handleSlice(w http.ResponseWriter, r *http.Request) {
	rt.count(&rt.m.ProxiedSlices, 1)
	name := r.PathValue("name")
	rt.proxyRead(w, r, name, datasetPath(name)+"/slice")
}

// DeleteResponse is the router's DELETE body: how many replicas held (and
// dropped) the dataset.
type DeleteResponse struct {
	Deleted  string `json:"deleted"`
	Replicas int    `json:"replicas"`
}

// handleDelete fans out to every shard — not just the current write set —
// because sloppy placement and past topologies may have left copies
// anywhere. Success if any replica deleted; 404 only when every reachable
// shard answered 404.
func (rt *Router) handleDelete(w http.ResponseWriter, r *http.Request) {
	rt.count(&rt.m.ProxiedDeletes, 1)
	name := r.PathValue("name")
	results := make([]shardResult, len(rt.shards))
	parallel(rt.shards, func(i int, sh *shardState) {
		results[i] = rt.exchange(r.Context(), http.MethodDelete, sh, datasetPath(name), r.URL.RawQuery, r.Header, nil)
	})
	deleted, notFound, reachable := 0, 0, 0
	firstHTTPErr := -1
	for i, res := range results {
		if res.err != nil {
			continue
		}
		reachable++
		switch {
		case res.status < 300:
			deleted++
		case res.status == http.StatusNotFound:
			notFound++
		default:
			if firstHTTPErr < 0 {
				firstHTTPErr = i
			}
		}
	}
	switch {
	case deleted > 0:
		writeJSON(w, http.StatusOK, &DeleteResponse{Deleted: name, Replicas: deleted})
	case reachable > 0 && notFound == reachable:
		rt.writeErr(w, http.StatusNotFound, "dataset_not_found", "dataset %q not found on any replica", name)
	case firstHTTPErr >= 0:
		relayBuffered(w, results[firstHTTPErr])
	default:
		rt.writeErr(w, http.StatusBadGateway, "delete_failed", "no shard reachable for delete of %q", name)
	}
}

// handleList fans out to every healthy shard and merges by dataset name,
// keeping the newest copy of each (manifest version order: created_at,
// then generation). Unreachable shards are skipped — a partial list beats
// no list — and X-RQM-Shards-Listed reports the coverage.
func (rt *Router) handleList(w http.ResponseWriter, r *http.Request) {
	rt.count(&rt.m.ProxiedLists, 1)
	occupancy, listed, asked := rt.inventory(r.Context())
	if asked == 0 {
		rt.writeErr(w, http.StatusServiceUnavailable, "no_shards", "no healthy shards")
		return
	}
	out := service.ListDatasetsResponse{Datasets: []service.DatasetInfo{}}
	for _, copies := range occupancy {
		out.Datasets = append(out.Datasets, newest(copies).info)
	}
	sort.Slice(out.Datasets, func(i, j int) bool { return out.Datasets[i].Name < out.Datasets[j].Name })
	w.Header().Set("X-RQM-Shards-Listed", fmt.Sprintf("%d/%d", listed, asked))
	writeJSON(w, http.StatusOK, &out)
}

// infoNewer applies the same (created_at, generation) version order the
// store's CAS uses, on the list projection.
func infoNewer(a, b *service.DatasetInfo) bool {
	if !a.CreatedAt.Equal(b.CreatedAt) {
		return a.CreatedAt.After(b.CreatedAt)
	}
	return a.Generation > b.Generation
}

// handleRecompact forwards to the first replica that takes the request,
// then repairs the remaining replicas by raw-copying the rewritten
// container from the shard that served it — recompaction happens once, the
// other replicas get its bytes verbatim. X-RQM-Replicas-Synced reports how
// many repairs succeeded.
func (rt *Router) handleRecompact(w http.ResponseWriter, r *http.Request) {
	rt.count(&rt.m.ProxiedRecompacts, 1)
	rt.forwardThenSync(w, r, "/recompact", "recompact", errBodyLimit)
}

// handlePromote / handleDemote proxy the residual-layer transitions the same
// way: the promotion (body: the original field, proven against the content
// hash shard-side) or demotion runs on one replica, and the peers receive
// the resulting generation — residual included — through the raw sync frame,
// so the lossless tier never has to be rebuilt R times.
func (rt *Router) handlePromote(w http.ResponseWriter, r *http.Request) {
	rt.count(&rt.m.ProxiedPromotes, 1)
	rt.forwardThenSync(w, r, "/promote", "promote", rt.cfg.MaxBodyBytes)
}

func (rt *Router) handleDemote(w http.ResponseWriter, r *http.Request) {
	rt.count(&rt.m.ProxiedDemotes, 1)
	rt.forwardThenSync(w, r, "/demote", "demote", errBodyLimit)
}

// forwardThenSync proxies the mutations of an existing dataset: any healthy
// shard may hold it (sloppy placement), so every one of them is a candidate
// for the mutation, and the result converges onto the current write set.
// X-RQM-Replicas-Synced reports how many peers converged in-request.
func (rt *Router) forwardThenSync(w http.ResponseWriter, r *http.Request, subpath, verb string, maxBody int64) {
	name := r.PathValue("name")
	body, ok := rt.bufferBody(w, r, maxBody)
	if !ok {
		return
	}
	defer body.release()
	healthy, _ := rt.candidates(name)
	if len(healthy) == 0 {
		rt.writeErr(w, http.StatusServiceUnavailable, "no_shards", "no healthy shards")
		return
	}
	res, holders, _ := rt.mutateThenSync(r, name, subpath, body, healthy, healthy[:min(len(healthy), rt.cfg.Replicas)])
	if res.sh == nil {
		rt.writeErr(w, http.StatusBadGateway, "no_replica", "no replica could %s dataset %q", verb, name)
		return
	}
	if res.status < 300 {
		w.Header().Set("X-RQM-Replicas-Synced", strconv.Itoa(holders-1))
	}
	relayBuffered(w, res)
}

// pooledBody is a mutation body, buffered for mutateThenSync to replay after
// a transport error. Its handler holds a reference until it returns, and
// each request's copy one until the transport closes it, maybe after Do
// returns. The last to let go returns it to bodyPool, poisoned under -race.
type pooledBody struct {
	buf  []byte
	refs atomic.Int32
}

var bodyPool = sync.Pool{New: func() any { return new(pooledBody) }}

func (b *pooledBody) release() {
	if b.refs.Add(-1) == 0 {
		poison.Bytes(b.buf)
		bodyPool.Put(b)
	}
}

// attach sends b as req's body as http.NewRequest sends a bytes.Reader:
// length declared, retries by GetBody, nothing at all when empty.
func (b *pooledBody) attach(req *http.Request) {
	if len(b.buf) > 0 {
		req.ContentLength = int64(len(b.buf))
		req.GetBody = func() (io.ReadCloser, error) { return b.reader(), nil }
		req.Body = b.reader()
	}
}

// reader is one request's copy of b, holding a reference that its first
// Close drops: a transport may close a body more than once.
func (b *pooledBody) reader() io.ReadCloser {
	b.refs.Add(1)
	return bodyReader{bytes.NewReader(b.buf), sync.OnceFunc(b.release)}
}

type bodyReader struct {
	*bytes.Reader
	close func()
}

func (r bodyReader) Close() error {
	r.close()
	return nil
}

// bufferBody reads a mutation's body, up to maxBody, into a pooled body
// holding the caller's reference, or answers 413 body_too_large itself, and
// 400 read_failed for any other failed read (a body ending before its
// declared length). A declared length is read into one buffer of that size.
func (rt *Router) bufferBody(w http.ResponseWriter, r *http.Request, maxBody int64) (*pooledBody, bool) {
	b := bodyPool.Get().(*pooledBody)
	b.refs.Store(1)
	var err error = &http.MaxBytesError{Limit: maxBody} // declared over the cap
	if r.ContentLength <= maxBody {
		b.buf, err = service.ReadBody(b.buf, http.MaxBytesReader(w, r.Body, maxBody), r.ContentLength)
	}
	switch err.(type) {
	case nil:
		return b, true
	case *http.MaxBytesError:
		rt.writeErr(w, http.StatusRequestEntityTooLarge, "body_too_large", "request body exceeds %d bytes", maxBody)
	default:
		rt.writeErr(w, http.StatusBadRequest, "read_failed", "reading the request body: %v", err)
	}
	b.release()
	return nil, false
}

// mutateThenSync is the one replicated-mutation primitive (put, recompact,
// promote, demote): the request runs on exactly one shard — the first of try
// to answer; a transport error marks that shard down and moves on, a 404
// lets the peer of a lagging replica try, any other answer is final — and on
// success that shard's committed bytes are raw-synced to the rest of set,
// the write set the caller fixed at request start (members that are down by
// then are not attempted). It returns the serving shard's buffered answer
// (res.sh nil: no shard answered), how many shards now hold the result —
// the one that ran the mutation plus every synced member of set — and the
// first failed sync's error, which names the shard it failed on.
func (rt *Router) mutateThenSync(r *http.Request, name, subpath string, body *pooledBody, try, set []*shardState) (shardResult, int, error) {
	defer rt.lockName(name)()
	for i, sh := range try {
		res := rt.exchange(r.Context(), http.MethodPost, sh, datasetPath(name)+subpath, r.URL.RawQuery, r.Header, body)
		if res.err != nil {
			if r.Context().Err() != nil {
				break
			}
			rt.count(&rt.m.Failovers, 1)
			continue
		}
		if res.status == http.StatusNotFound && i < len(try)-1 {
			continue // this replica may simply lag; let a peer try
		}
		holders := 0
		var syncErr error
		if res.status < 300 {
			holders = 1
			for _, sr := range rt.convergeLocked(r.Context(), name, sh, healthyOf(set)) {
				if sr.err == nil {
					holders++
				} else if syncErr == nil {
					syncErr = sr.err
				}
			}
		}
		return res, holders, syncErr
	}
	return shardResult{}, 0, nil
}

// lockName serializes this router's work on one dataset name and returns the
// unlock: a mutation together with its peer syncs is one critical section (the
// peers receive the version that request committed), each converge another. A
// sync is one read of its source's raw-put frame, and a shard commits plain
// puts in arrival order, whatever their timestamps: a sync overlapping a
// mutation could read a frame across the source's commit (the target's hash
// check refuses it), and two overlapping syncs could both take a target's
// unconditional first-copy path. Across routers the raw put's version arbiter
// and the next rebalance settle what is left.
func (rt *Router) lockName(name string) (unlock func()) {
	mu := &rt.mutating[hashKey(name)%uint64(len(rt.mutating))]
	mu.Lock()
	return mu.Unlock
}

// syncResult is the outcome of one raw sync: syncReplica's results.
type syncResult struct {
	n      int64
	status int
	err    error
}

// converge is the one replica-repair primitive: under the name's lock, targets
// are made to hold src's committed version of name. Read-repair and rebalance
// call it; mutateThenSync, which holds the lock already, calls its body.
func (rt *Router) converge(ctx context.Context, name string, src *shardState, targets []*shardState) []syncResult {
	defer rt.lockName(name)()
	return rt.convergeLocked(ctx, name, src, targets)
}

// convergeLocked is the only caller of syncReplica: one raw sync to every
// target other than src, whatever its health — an unreachable target is a
// failed sync, never a silent skip — and one result per sync, in target order.
func (rt *Router) convergeLocked(ctx context.Context, name string, src *shardState, targets []*shardState) []syncResult {
	var out []syncResult
	for _, dst := range targets {
		if dst == src {
			continue
		}
		n, status, err := rt.syncReplica(ctx, src, dst, name)
		if err != nil {
			rt.count(&rt.m.ReplicaSyncFailures, 1)
		} else {
			rt.count(&rt.m.ReplicaSyncs, 1)
		}
		out = append(out, syncResult{n, status, err})
	}
	return out
}

// handleNotRoutable rejects everything outside the dataset and cluster
// APIs: compute endpoints (/v1/compress, /v1/estimate, ...) are shard-local
// and carry no dataset name to place on the ring.
func (rt *Router) handleNotRoutable(w http.ResponseWriter, r *http.Request) {
	rt.writeErr(w, http.StatusNotFound, "not_routable",
		"the router serves /v1/datasets*, /v1/cluster/*, /healthz and /metrics; compute endpoints are served by shards directly")
}

// ---------------------------------------------------------------------------
// Cluster introspection

// ShardStatus is one shard's health record in /v1/cluster/status.
type ShardStatus struct {
	URL                 string    `json:"url"`
	Healthy             bool      `json:"healthy"`
	ConsecutiveFailures int       `json:"consecutive_failures"`
	Datasets            int       `json:"datasets"`
	LastError           string    `json:"last_error,omitempty"`
	LastProbe           time.Time `json:"last_probe,omitzero"`
}

// ClusterStatus is the GET /v1/cluster/status body.
type ClusterStatus struct {
	Shards     []ShardStatus `json:"shards"`
	Healthy    int           `json:"healthy"`
	Replicas   int           `json:"replicas"`
	Quorum     int           `json:"quorum"`
	VNodes     int           `json:"vnodes"`
	RingPoints int           `json:"ring_points"`
}

// Status snapshots cluster topology and shard health.
func (rt *Router) Status() ClusterStatus {
	cs := ClusterStatus{
		Replicas:   rt.cfg.Replicas,
		Quorum:     rt.Quorum(),
		VNodes:     rt.cfg.VNodes,
		RingPoints: len(rt.ring.points),
	}
	for _, sh := range rt.shards {
		st := sh.status()
		if st.Healthy {
			cs.Healthy++
		}
		cs.Shards = append(cs.Shards, st)
	}
	return cs
}

func (rt *Router) handleClusterStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, rt.Status())
}

// RouterHealth is the router's own /healthz body.
type RouterHealth struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Shards        int     `json:"shards"`
	Healthy       int     `json:"healthy"`
}

// handleHealthz reports router liveness plus a one-line shard summary. The
// router is degraded (but still 200 — it can serve whatever replicas
// remain) unless zero shards are healthy, which is a 503.
func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := rt.Status()
	h := RouterHealth{Status: "ok", UptimeSeconds: time.Since(rt.start).Seconds(), Shards: len(st.Shards), Healthy: st.Healthy}
	code := http.StatusOK
	switch {
	case st.Healthy == 0:
		h.Status = "unavailable"
		code = http.StatusServiceUnavailable
	case st.Healthy < len(st.Shards):
		h.Status = "degraded"
	}
	writeJSON(w, code, &h)
}

// Metrics is the router's /metrics snapshot, and where its counters live: a
// Router keeps one, bumps its fields with count, and serves a copy of it.
// RebalanceBytesMoved sums RebalanceReport.BytesMoved: raw-put frame bytes,
// manifest included.
type Metrics struct {
	UptimeSeconds       float64 `json:"uptime_seconds"`
	Requests            int64   `json:"requests"`
	Errors              int64   `json:"errors"`
	ProxiedPuts         int64   `json:"proxied_puts"`
	ProxiedGets         int64   `json:"proxied_gets"`
	ProxiedLists        int64   `json:"proxied_lists"`
	ProxiedDeletes      int64   `json:"proxied_deletes"`
	ProxiedSlices       int64   `json:"proxied_slices"`
	ProxiedRecompacts   int64   `json:"proxied_recompacts"`
	ProxiedPromotes     int64   `json:"proxied_promotes"`
	ProxiedDemotes      int64   `json:"proxied_demotes"`
	Failovers           int64   `json:"failovers"`
	ReadRepairs         int64   `json:"read_repairs"`
	ReadRepairFailures  int64   `json:"read_repair_failures"`
	QuorumFailures      int64   `json:"quorum_failures"`
	ReplicaSyncs        int64   `json:"replica_syncs"`
	ReplicaSyncFailures int64   `json:"replica_sync_failures"`
	Rebalances          int64   `json:"rebalances"`
	RebalanceCopied     int64   `json:"rebalance_copied"`
	RebalanceRemoved    int64   `json:"rebalance_removed"`
	RebalanceBytesMoved int64   `json:"rebalance_bytes_moved"`
	Probes              int64   `json:"probes"`
	ProbeFailures       int64   `json:"probe_failures"`
	ShardsTotal         int     `json:"shards_total"`
	ShardsHealthy       int     `json:"shards_healthy"`
}

// Snapshot copies the counters as one consistent cut (see mu) and fills the
// gauges in after it.
func (rt *Router) Snapshot() Metrics {
	rt.mu.Lock()
	m := rt.m
	rt.mu.Unlock()
	m.UptimeSeconds = time.Since(rt.start).Seconds()
	m.ShardsTotal = len(rt.shards)
	m.ShardsHealthy = len(healthyOf(rt.shards))
	return m
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Cache-Control", "no-store")
	writeJSON(w, http.StatusOK, rt.Snapshot())
}

func (rt *Router) handleRebalance(w http.ResponseWriter, r *http.Request) {
	rep, err := rt.Rebalance(r.Context())
	if err != nil {
		rt.writeErr(w, http.StatusServiceUnavailable, "rebalance_failed", "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}
