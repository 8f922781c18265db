package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"rqm"
	"rqm/internal/faultfs"
	"rqm/internal/service"
	"rqm/internal/store"
)

// ---------------------------------------------------------------------------
// Multi-shard harness

// testShard is one rqserved-equivalent: a store-backed service behind a
// real listener that tests can kill (Close) to simulate a crashed shard.
type testShard struct {
	svc *service.Service
	st  *store.Store
	ts  *httptest.Server
}

func (s *testShard) kill() { s.ts.Close() }

// metrics fetches the shard's own counter snapshot.
func (s *testShard) metrics(t *testing.T) service.MetricsSnapshot {
	t.Helper()
	resp, err := http.Get(s.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m service.MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

// has reports whether the shard holds name, with its listing info. A dead
// shard (connection refused) simply holds nothing.
func (s *testShard) has(t *testing.T, name string) (service.DatasetInfo, bool) {
	t.Helper()
	resp, err := http.Get(s.ts.URL + "/v1/datasets/" + name + "?manifest=1")
	if err != nil {
		return service.DatasetInfo{}, false
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return service.DatasetInfo{}, false
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stat %s on %s: status %d", name, s.ts.URL, resp.StatusCode)
	}
	var info service.DatasetInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	return info, true
}

// raw fetches the shard's container bytes for name verbatim.
func (s *testShard) raw(t *testing.T, name string) []byte {
	t.Helper()
	resp, err := http.Get(s.ts.URL + "/v1/datasets/" + name + "?raw=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("raw %s on %s: status %d", name, s.ts.URL, resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// testCluster is N shards fronted by one router (background prober off;
// tests drive ProbeNow explicitly for determinism).
type testCluster struct {
	shards []*testShard
	rt     *Router
	ts     *httptest.Server
}

func newShard(t *testing.T) *testShard { return newShardWith(t, nil) }

// newShardWith is newShard with a non-default base engine (nil = defaults).
func newShardWith(t *testing.T, eng *rqm.Engine) *testShard {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	svc, err := service.New(service.Config{Store: st, Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc)
	t.Cleanup(ts.Close)
	return &testShard{svc: svc, st: st, ts: ts}
}

func newRouterOver(t *testing.T, shards []*testShard, replicas int) (*Router, *httptest.Server) {
	t.Helper()
	urls := make([]string, len(shards))
	for i, s := range shards {
		urls[i] = s.ts.URL
	}
	rt, err := New(Config{Shards: urls, Replicas: replicas, ProbeInterval: -1, FailAfter: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	ts := httptest.NewServer(rt)
	t.Cleanup(ts.Close)
	return rt, ts
}

func newTestCluster(t *testing.T, n, replicas int) *testCluster {
	t.Helper()
	tc := &testCluster{}
	for i := 0; i < n; i++ {
		tc.shards = append(tc.shards, newShard(t))
	}
	tc.rt, tc.ts = newRouterOver(t, tc.shards, replicas)
	return tc
}

// fieldBytes synthesizes one .rqmf payload; seed varies the data so
// distinct datasets have distinct containers and content hashes.
func fieldBytes(t testing.TB, seed uint64) []byte {
	t.Helper()
	g, err := rqm.GenerateField("nyx/temperature", seed, rqm.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	f, err := rqm.FieldFromData("cluster-test", rqm.Float64, g.Data, g.Dims...)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// put stores body under name through the router, asserting success, and
// returns the response.
func (tc *testCluster) put(t *testing.T, name, query string, body []byte) (service.DatasetInfo, *http.Response) {
	t.Helper()
	resp, err := http.Post(tc.ts.URL+"/v1/datasets/"+name+"?"+query, "application/octet-stream",
		bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("put %s via router: status %d: %s", name, resp.StatusCode, raw)
	}
	var info service.DatasetInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	return info, resp
}

// get reads the decompressed dataset through the router.
func (tc *testCluster) get(t *testing.T, name string) (int, []byte, http.Header) {
	t.Helper()
	resp, err := http.Get(tc.ts.URL + "/v1/datasets/" + name)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b, resp.Header
}

// holders returns the indexes of shards currently holding name.
func (tc *testCluster) holders(t *testing.T, name string) []int {
	t.Helper()
	var out []int
	for i, s := range tc.shards {
		if _, ok := s.has(t, name); ok {
			out = append(out, i)
		}
	}
	return out
}

func decodeErr(t *testing.T, resp *http.Response) service.ErrorBody {
	t.Helper()
	var eb service.ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil || eb.Error.Code == "" {
		t.Fatalf("response is not the typed error envelope (err %v)", err)
	}
	return eb
}

// ---------------------------------------------------------------------------
// Replication

func TestClusterPutReplicatesToR(t *testing.T) {
	tc := newTestCluster(t, 3, 2)
	body := fieldBytes(t, 1)

	_, resp := tc.put(t, "cl-rep", "mode=abs&eb=0.01&chunk=512", body)
	if got := resp.Header.Get("X-RQM-Replicas"); got != "2/2" {
		t.Fatalf("X-RQM-Replicas = %q, want 2/2", got)
	}
	holders := tc.holders(t, "cl-rep")
	if len(holders) != 2 {
		t.Fatalf("dataset on shards %v, want exactly 2 replicas", holders)
	}
	want := tc.rt.ring.sequence("cl-rep")[:2]
	for i, h := range holders {
		found := false
		for _, w := range want {
			if h == w {
				found = true
			}
		}
		if !found {
			t.Fatalf("holder %d (%v) not in ring-desired set %v", i, holders, want)
		}
	}
	// Replicas are byte-identical: same container, same manifest version.
	a, b := tc.shards[holders[0]], tc.shards[holders[1]]
	if !bytes.Equal(a.raw(t, "cl-rep"), b.raw(t, "cl-rep")) {
		t.Fatal("replica containers differ after quorum write")
	}
	ia, _ := a.has(t, "cl-rep")
	ib, _ := b.has(t, "cl-rep")
	if !ia.CreatedAt.Equal(ib.CreatedAt) || ia.Generation != ib.Generation || ia.ContentHash != ib.ContentHash {
		t.Fatalf("replica manifests diverge: %+v vs %+v", ia, ib)
	}
	// Read through the router serves the field.
	code, got, _ := tc.get(t, "cl-rep")
	if code != http.StatusOK || !bytes.Equal(got, fieldRoundTrip(t, a, "cl-rep")) {
		t.Fatalf("router get: status %d, %d bytes", code, len(got))
	}
}

// fieldRoundTrip fetches the decompressed field directly from a shard, as
// the comparison oracle for router reads.
func fieldRoundTrip(t *testing.T, s *testShard, name string) []byte {
	t.Helper()
	resp, err := http.Get(s.ts.URL + "/v1/datasets/" + name)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// ---------------------------------------------------------------------------
// Failover: the acceptance scenario. Killing ANY single shard of a 3-shard
// R=2 cluster must not fail a single read — every dataset keeps one live
// replica and the router fails over to it within the same request.

func TestClusterKillAnyShardZeroFailedReads(t *testing.T) {
	const datasets = 8
	for kill := 0; kill < 3; kill++ {
		t.Run(fmt.Sprintf("kill-shard-%d", kill), func(t *testing.T) {
			tc := newTestCluster(t, 3, 2)
			// Cover both read paths: names whose PRIMARY is the doomed shard
			// (the read must fail over mid-request) and names that merely
			// keep a replica there.
			var names []string
			primaries := 0
			for i := 0; len(names) < datasets; i++ {
				name := fmt.Sprintf("cl-fo-%d-%d", kill, i)
				isPrimary := tc.rt.ring.sequence(name)[0] == kill
				if isPrimary && primaries < datasets/2 {
					names = append(names, name)
					primaries++
				} else if !isPrimary && len(names)-primaries < datasets-datasets/2 {
					names = append(names, name)
				}
			}
			if primaries == 0 {
				t.Fatal("no test name has the doomed shard as primary")
			}
			want := map[string][]byte{}
			for i, name := range names {
				body := fieldBytes(t, uint64(i+1))
				tc.put(t, name, "mode=abs&eb=0.01&chunk=512", body)
				_, field, _ := func() (int, []byte, http.Header) { return tc.get(t, name) }()
				want[name] = field
			}

			tc.shards[kill].kill()

			failedOver := 0
			for name, field := range want {
				code, got, hdr := tc.get(t, name)
				if code != http.StatusOK {
					t.Fatalf("read %s after killing shard %d: status %d", name, kill, code)
				}
				if !bytes.Equal(got, field) {
					t.Fatalf("read %s after killing shard %d: bytes differ", name, kill)
				}
				if hdr.Get("X-RQM-Failover") != "" {
					failedOver++
				}
			}
			if m := tc.rt.Snapshot(); m.Failovers == 0 {
				t.Fatalf("metrics report no failovers after killing a shard (reads that failed over: %d)", failedOver)
			}
			// The router learned passively: the dead shard is marked down.
			st := tc.rt.Status()
			if st.Healthy != 2 {
				t.Fatalf("cluster status: %d healthy shards after kill, want 2", st.Healthy)
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Rebalance

// TestClusterRebalanceAfterKill: after losing a shard, one rebalance pass
// restores R=2 for every dataset — by streaming raw containers, never by
// recompressing (byte-identical containers, preserved generation, zero new
// compresses on the receiving shards).
func TestClusterRebalanceAfterKill(t *testing.T) {
	const datasets = 6
	tc := newTestCluster(t, 3, 2)
	type ds struct {
		raw  []byte
		info service.DatasetInfo
	}
	want := map[string]ds{}
	for i := 0; i < datasets; i++ {
		name := fmt.Sprintf("cl-rb-%d", i)
		tc.put(t, name, "mode=rel&eb=1e-3&chunk=512", fieldBytes(t, uint64(i+1)))
		h := tc.holders(t, name)
		info, _ := tc.shards[h[0]].has(t, name)
		want[name] = ds{raw: tc.shards[h[0]].raw(t, name), info: info}
	}

	tc.shards[0].kill()

	// Baseline live-shard counters: rebalance must add raw puts, not
	// compression work.
	preCompresses := make([]int64, 3)
	preRawPuts := make([]int64, 3)
	for i := 1; i < 3; i++ {
		m := tc.shards[i].metrics(t)
		preCompresses[i] = m.Compresses
		preRawPuts[i] = m.DatasetRawPuts
	}

	resp, err := http.Post(tc.ts.URL+"/v1/cluster/rebalance", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("rebalance: status %d: %s", resp.StatusCode, raw)
	}
	var rep RebalanceReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if rep.ShardsLive != 2 || rep.Datasets != datasets || rep.Failed != 0 {
		t.Fatalf("rebalance report %+v", rep)
	}
	if rep.Copied == 0 || rep.BytesMoved == 0 {
		t.Fatalf("rebalance copied nothing (%+v) — the killed shard held replicas", rep)
	}

	rawPutsSeen := int64(0)
	for name, w := range want {
		holders := 0
		for i := 1; i < 3; i++ {
			info, ok := tc.shards[i].has(t, name)
			if !ok {
				continue
			}
			holders++
			if !bytes.Equal(tc.shards[i].raw(t, name), w.raw) {
				t.Fatalf("%s on shard %d: container bytes differ after rebalance (recompressed?)", name, i)
			}
			if !info.CreatedAt.Equal(w.info.CreatedAt) || info.Generation != w.info.Generation ||
				info.ContentHash != w.info.ContentHash {
				t.Fatalf("%s on shard %d: manifest version changed: %+v -> %+v", name, i, w.info, info)
			}
		}
		if holders != 2 {
			t.Fatalf("%s has %d live replicas after rebalance, want 2", name, holders)
		}
	}
	for i := 1; i < 3; i++ {
		m := tc.shards[i].metrics(t)
		if m.Compresses != preCompresses[i] {
			t.Fatalf("shard %d ran %d compresses during rebalance — migration must move raw bytes",
				i, m.Compresses-preCompresses[i])
		}
		rawPutsSeen += m.DatasetRawPuts - preRawPuts[i]
	}
	if rawPutsSeen != int64(rep.Copied) {
		t.Fatalf("shards saw %d raw puts, report says %d copied", rawPutsSeen, rep.Copied)
	}

	// Idempotence: a second pass moves nothing.
	rep2, err := tc.rt.Rebalance(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Copied != 0 || rep2.Removed != 0 || rep2.Failed != 0 {
		t.Fatalf("second rebalance not a no-op: %+v", rep2)
	}
}

// TestClusterRebalanceAfterJoin: datasets written under a 2-shard topology
// are migrated onto a new third shard by a router that knows the grown
// ring, and strays outside the new desired sets are removed.
func TestClusterRebalanceAfterJoin(t *testing.T) {
	const datasets = 8
	shards := []*testShard{newShard(t), newShard(t), newShard(t)}

	// Phase 1: a router over the first two shards only.
	_, oldTS := newRouterOver(t, shards[:2], 2)
	want := map[string][]byte{}
	for i := 0; i < datasets; i++ {
		name := fmt.Sprintf("cl-join-%d", i)
		body := fieldBytes(t, uint64(i+1))
		resp, err := http.Post(oldTS.URL+"/v1/datasets/"+name+"?mode=abs&eb=0.01&chunk=512",
			"application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("put %s: status %d", name, resp.StatusCode)
		}
		resp.Body.Close()
		info, ok := shards[0].has(t, name)
		_ = info
		if !ok {
			if _, ok := shards[1].has(t, name); !ok {
				t.Fatalf("put %s landed nowhere", name)
			}
		}
		// Record the container from whichever shard holds it.
		for _, s := range shards[:2] {
			if _, ok := s.has(t, name); ok {
				want[name] = s.raw(t, name)
				break
			}
		}
	}

	// Phase 2: shard 3 joins; a new router sees the grown ring.
	rt2, _ := newRouterOver(t, shards, 2)
	rep, err := rt2.Rebalance(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.ShardsLive != 3 || rep.Datasets != datasets || rep.Failed != 0 {
		t.Fatalf("rebalance report %+v", rep)
	}
	if rep.Copied == 0 {
		t.Fatal("join rebalance copied nothing — the new shard should claim ring arcs")
	}

	newShardHolds := 0
	for name, raw := range want {
		desired := rt2.ring.sequence(name)[:2]
		holders := map[int]bool{}
		for i, s := range shards {
			if _, ok := s.has(t, name); ok {
				holders[i] = true
				if !bytes.Equal(s.raw(t, name), raw) {
					t.Fatalf("%s on shard %d: bytes differ after join rebalance", name, i)
				}
			}
		}
		if len(holders) != 2 {
			t.Fatalf("%s has holders %v, want exactly its 2 desired replicas %v", name, holders, desired)
		}
		for _, d := range desired {
			if !holders[d] {
				t.Fatalf("%s missing from desired shard %d (holders %v)", name, d, holders)
			}
		}
		if holders[2] {
			newShardHolds++
		}
	}
	if newShardHolds == 0 {
		t.Fatal("no dataset migrated to the joined shard across the whole keyspace")
	}
	if rep.Removed == 0 {
		t.Fatal("no stray replicas removed — migration to the new shard must displace old copies")
	}
}

// ---------------------------------------------------------------------------
// Quorum and write-path failure

// TestClusterQuorumFailure: with a replica freshly dead (router not yet
// aware), a write reaching only 1/2 replicas is a typed quorum failure —
// and the very next write succeeds because the failure marked the shard
// down and rerouted.
func TestClusterQuorumFailure(t *testing.T) {
	tc := newTestCluster(t, 3, 2)
	body := fieldBytes(t, 1)
	goroutines := runtime.NumGoroutine()

	// Find a name whose desired set includes shard 0.
	name := ""
	for i := 0; i < 1000; i++ {
		cand := fmt.Sprintf("cl-q-%d", i)
		seq := tc.rt.ring.sequence(cand)
		if seq[0] == 0 || seq[1] == 0 {
			name = cand
			break
		}
	}
	if name == "" {
		t.Fatal("no candidate name routed to shard 0")
	}
	tc.shards[0].kill()

	resp, err := http.Post(tc.ts.URL+"/v1/datasets/"+name+"?mode=abs&eb=0.01",
		"application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("put with dead replica: status %d, want 502", resp.StatusCode)
	}
	if eb := decodeErr(t, resp); eb.Error.Code != "quorum_failed" {
		t.Fatalf("error code %q, want quorum_failed", eb.Error.Code)
	}
	if m := tc.rt.Snapshot(); m.QuorumFailures != 1 {
		t.Fatalf("QuorumFailures = %d, want 1", m.QuorumFailures)
	}

	// The failed fan-out marked shard 0 down; the retry routes around it.
	tc.put(t, name, "mode=abs&eb=0.01", body)
	if h := tc.holders(t, name); len(h) != 2 {
		t.Fatalf("post-failure put landed on %v, want 2 live replicas", h)
	}

	// No sync outlives its request: with the idle keep-alive connections
	// dropped, the goroutine count settles back to where it started.
	faultfs.WaitFor(t, 5*time.Second, func() error {
		tc.rt.ownTransport.CloseIdleConnections()
		http.DefaultTransport.(*http.Transport).CloseIdleConnections()
		if n := runtime.NumGoroutine(); n > goroutines {
			return fmt.Errorf("%d goroutines after the failed and the retried put, %d before: a sync leaked", n, goroutines)
		}
		return nil
	})
}

// ---------------------------------------------------------------------------
// Proxy edge cases

// TestClusterEscapedNames: percent-encoded names survive the
// decode-reencode hop through the router, and an encoded slash (a name the
// store forbids) comes back as the shard's typed 400, not a routing error.
func TestClusterEscapedNames(t *testing.T) {
	tc := newTestCluster(t, 3, 2)
	body := fieldBytes(t, 1)

	tc.put(t, "nyx.temp-1_2", "mode=abs&eb=0.01", body)
	// %2E == '.', %5F == '_': same dataset through an escaped spelling.
	resp, err := http.Get(tc.ts.URL + "/v1/datasets/nyx%2Etemp-1%5F2?manifest=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("escaped-name stat: status %d", resp.StatusCode)
	}
	var info service.DatasetInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil || info.Name != "nyx.temp-1_2" {
		t.Fatalf("escaped-name stat decoded %+v (err %v)", info, err)
	}

	// Encoded slash: one path segment to both muxes, rejected by the store's
	// name charset with the typed envelope end to end.
	resp2, err := http.Post(tc.ts.URL+"/v1/datasets/nyx%2Ftemp?mode=abs&eb=0.01",
		"application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("encoded-slash put: status %d, want 400", resp2.StatusCode)
	}
	if eb := decodeErr(t, resp2); eb.Error.Code != "bad_name" {
		t.Fatalf("encoded-slash put: code %q, want bad_name", eb.Error.Code)
	}
}

// TestClusterEmptyListMerge: an empty cluster lists as "datasets": [] —
// a JSON array, never null — with full shard coverage reported.
func TestClusterEmptyListMerge(t *testing.T) {
	tc := newTestCluster(t, 3, 2)
	resp, err := http.Get(tc.ts.URL + "/v1/datasets")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("empty list: status %d", resp.StatusCode)
	}
	if !strings.Contains(string(raw), `"datasets":[]`) {
		t.Fatalf("empty merge must serialize as an empty array, got %s", raw)
	}
	if got := resp.Header.Get("X-RQM-Shards-Listed"); got != "3/3" {
		t.Fatalf("X-RQM-Shards-Listed = %q, want 3/3", got)
	}
}

// TestClusterListMergesAndDeleteFansOut: list sees each dataset once across
// replicas; delete removes every replica.
func TestClusterListMergesAndDeleteFansOut(t *testing.T) {
	tc := newTestCluster(t, 3, 2)
	for i := 0; i < 4; i++ {
		tc.put(t, fmt.Sprintf("cl-ls-%d", i), "mode=abs&eb=0.01", fieldBytes(t, uint64(i+1)))
	}
	resp, err := http.Get(tc.ts.URL + "/v1/datasets")
	if err != nil {
		t.Fatal(err)
	}
	var lr service.ListDatasetsResponse
	if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(lr.Datasets) != 4 {
		t.Fatalf("merged list has %d entries, want 4 (replicas must dedupe)", len(lr.Datasets))
	}

	req, _ := http.NewRequest(http.MethodDelete, tc.ts.URL+"/v1/datasets/cl-ls-0", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var dr DeleteResponse
	if err := json.NewDecoder(dresp.Body).Decode(&dr); err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK || dr.Replicas != 2 {
		t.Fatalf("delete: status %d, %+v (want both replicas dropped)", dresp.StatusCode, dr)
	}
	if h := tc.holders(t, "cl-ls-0"); len(h) != 0 {
		t.Fatalf("dataset survives on shards %v after fan-out delete", h)
	}
	// A second delete is a clean typed 404.
	dresp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer dresp2.Body.Close()
	if dresp2.StatusCode != http.StatusNotFound {
		t.Fatalf("double delete: status %d, want 404", dresp2.StatusCode)
	}
	if eb := decodeErr(t, dresp2); eb.Error.Code != "dataset_not_found" {
		t.Fatalf("double delete: code %q", eb.Error.Code)
	}
}

// TestClusterCASConflictThroughRouter: the store's Commit CAS surfaces as
// the typed 409 through the proxy — the cluster's conflict arbiter is
// reachable end to end.
func TestClusterCASConflictThroughRouter(t *testing.T) {
	tc := newTestCluster(t, 3, 2)
	body := fieldBytes(t, 1)
	tc.put(t, "cl-cas", "mode=abs&eb=0.01", body)

	resp, err := http.Post(tc.ts.URL+"/v1/datasets/cl-cas?mode=abs&eb=0.01&if-generation=7",
		"application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("stale conditional put: status %d, want 409", resp.StatusCode)
	}
	if eb := decodeErr(t, resp); eb.Error.Code != "conflict" {
		t.Fatalf("stale conditional put: code %q, want conflict", eb.Error.Code)
	}

	// The matching generation goes through and bumps every replica.
	info, _ := tc.put(t, "cl-cas", "mode=abs&eb=0.01&if-generation=0", body)
	if info.Generation != 1 {
		t.Fatalf("conditional put generation %d, want 1", info.Generation)
	}
	for _, i := range tc.holders(t, "cl-cas") {
		got, _ := tc.shards[i].has(t, "cl-cas")
		if got.Generation != 1 {
			t.Fatalf("shard %d at generation %d after conditional put", i, got.Generation)
		}
	}
}

// TestClusterRecompactRepairsReplicas: recompaction runs on one replica;
// the router then raw-syncs the rewritten container to the others so the
// replica set converges on the new generation without recompressing twice.
func TestClusterRecompactRepairsReplicas(t *testing.T) {
	tc := newTestCluster(t, 3, 2)
	tc.put(t, "cl-rc", "mode=rel&eb=1e-4&chunk=512", fieldBytes(t, 1))

	resp, err := http.Post(tc.ts.URL+"/v1/datasets/cl-rc/recompact?target-ratio=100", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recompact via router: status %d: %s", resp.StatusCode, raw)
	}
	var rr service.RecompactResponse
	if err := json.Unmarshal(raw, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Skipped {
		t.Fatalf("recompact skipped (%s) — test wants a rewrite", rr.Reason)
	}
	if got := resp.Header.Get("X-RQM-Replicas-Synced"); got != "1" {
		t.Fatalf("X-RQM-Replicas-Synced = %q, want 1", got)
	}
	h := tc.holders(t, "cl-rc")
	if len(h) != 2 {
		t.Fatalf("holders after recompact: %v", h)
	}
	a, _ := tc.shards[h[0]].has(t, "cl-rc")
	b, _ := tc.shards[h[1]].has(t, "cl-rc")
	if a.Generation != rr.Generation || b.Generation != rr.Generation {
		t.Fatalf("replica generations %d/%d, want %d on both", a.Generation, b.Generation, rr.Generation)
	}
	if !bytes.Equal(tc.shards[h[0]].raw(t, "cl-rc"), tc.shards[h[1]].raw(t, "cl-rc")) {
		t.Fatal("replica containers differ after recompact repair")
	}
}

// ---------------------------------------------------------------------------
// Health, status, metrics

// TestRouterHealthAndDrainAwareProbe: the prober demotes a draining shard
// (503 readiness) and the router's own healthz degrades accordingly.
func TestRouterHealthAndDrainAwareProbe(t *testing.T) {
	tc := newTestCluster(t, 3, 2)
	resp, err := http.Get(tc.ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h RouterHealth
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || h.Status != "ok" || h.Healthy != 3 {
		t.Fatalf("healthz %d %+v", resp.StatusCode, h)
	}

	// A draining shard flips its readiness; one probe pass (FailAfter=1 in
	// the harness) takes it out of rotation.
	tc.shards[1].svc.BeginDrain()
	tc.rt.ProbeNow(context.Background())
	st := tc.rt.Status()
	if st.Healthy != 2 || st.Shards[1].Healthy {
		t.Fatalf("draining shard still in rotation: %+v", st.Shards)
	}

	resp2, err := http.Get(tc.ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var h2 RouterHealth
	if err := json.NewDecoder(resp2.Body).Decode(&h2); err != nil {
		t.Fatal(err)
	}
	if resp2.StatusCode != http.StatusOK || h2.Status != "degraded" {
		t.Fatalf("healthz with draining shard: %d %+v", resp2.StatusCode, h2)
	}
}

// TestRouterMetricsContentTypeAndCounters: /metrics is explicit JSON and
// counts the proxy work done.
func TestRouterMetricsContentTypeAndCounters(t *testing.T) {
	tc := newTestCluster(t, 3, 2)
	tc.put(t, "cl-m", "mode=abs&eb=0.01", fieldBytes(t, 1))
	tc.get(t, "cl-m")

	resp, err := http.Get(tc.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("router /metrics Content-Type = %q", ct)
	}
	var m Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.ProxiedPuts != 1 || m.ProxiedGets != 1 || m.ShardsTotal != 3 || m.ShardsHealthy != 3 {
		t.Fatalf("metrics %+v", m)
	}
	if m.Requests < 3 {
		t.Fatalf("requests counter %d, want >= 3", m.Requests)
	}
}

// TestRouterWrongMethodAnswers405: a wrong method on a routed path answers
// what a shard answers for it — the typed 405 with the path's Allow list —
// not the router's 404 for unrouted paths; router-only paths answer the same
// shape from the router's own route table.
func TestRouterWrongMethodAnswers405(t *testing.T) {
	tc := newTestCluster(t, 1, 1)
	do := func(base, method, path string) (int, string, string) {
		t.Helper()
		req, err := http.NewRequest(method, base+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode, resp.Header.Get("Allow"), decodeErr(t, resp).Error.Code
	}
	for _, method := range []string{http.MethodPut, http.MethodPatch} {
		for _, path := range []string{"/healthz", "/metrics", "/v1/datasets", "/v1/datasets/x",
			"/v1/datasets/x/slice", "/v1/datasets/x/recompact", "/v1/datasets/x/promote", "/v1/datasets/x/demote"} {
			before := tc.rt.Snapshot()
			status, allow, code := do(tc.ts.URL, method, path)
			wantStatus, wantAllow, wantCode := do(tc.shards[0].ts.URL, method, path)
			if status != wantStatus || allow != wantAllow || code != wantCode || status != http.StatusMethodNotAllowed {
				t.Fatalf("%s %s via router: %d %s, Allow %q; the shard answers %d %s, Allow %q",
					method, path, status, code, allow, wantStatus, wantCode, wantAllow)
			}
			if after := tc.rt.Snapshot(); after.Requests != before.Requests+1 || after.Errors != before.Errors+1 {
				t.Fatalf("%s %s: router requests +%d errors +%d, want +1 +1", method, path,
					after.Requests-before.Requests, after.Errors-before.Errors)
			}
		}
		for path, wantAllow := range map[string]string{"/v1/cluster/status": "GET", "/v1/cluster/rebalance": "POST"} {
			if status, allow, code := do(tc.ts.URL, method, path); status != http.StatusMethodNotAllowed ||
				allow != wantAllow || code != "method_not_allowed" {
				t.Fatalf("%s %s: %d %s, Allow %q; want 405 method_not_allowed, Allow %q",
					method, path, status, code, allow, wantAllow)
			}
		}
	}
}

// TestRouterSnapshotIsConsistentCut: while requests run concurrently, some
// of them failing, every router and shard snapshot taken mid-flight is one
// cut of the counters — an error is never visible without its request.
func TestRouterSnapshotIsConsistentCut(t *testing.T) {
	tc := newTestCluster(t, 2, 2)
	tc.put(t, "cut", "mode=abs&eb=0.01", fieldBytes(t, 1))

	stop := make(chan struct{})
	scraped := make(chan int)
	go func() {
		n := 0
		defer func() { scraped <- n }()
		for ; ; n++ {
			select {
			case <-stop:
				return
			default:
			}
			if m := tc.rt.Snapshot(); m.Errors > m.Requests {
				t.Errorf("torn router snapshot: requests %d, errors %d", m.Requests, m.Errors)
				return
			}
			for _, sh := range tc.shards {
				if m := sh.svc.Snapshot(); m.Errors > m.Requests || m.Rejected > m.Requests {
					t.Errorf("torn shard snapshot: requests %d, errors %d, rejected %d", m.Requests, m.Errors, m.Rejected)
					return
				}
			}
		}
	}()
	const clients, each = 4, 15
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range each {
				path := [...]string{"/v1/datasets/cut?manifest=1", "/v1/datasets/missing", "/v1/compress"}[(c+i)%3]
				resp, err := http.Get(tc.ts.URL + path) // served, 404 from the shards, 404 not_routable
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
	close(stop)
	if n := <-scraped; n == 0 {
		t.Fatal("no snapshot was taken while requests ran")
	}
	if m := tc.rt.Snapshot(); m.Errors < 2*clients*each/3 {
		t.Fatalf("router errors %d, want at least %d", m.Errors, 2*clients*each/3)
	}
}

// TestRouterRejectsComputeEndpoints: non-dataset service routes are not
// proxied — they are shard-local and carry no placement key.
func TestRouterRejectsComputeEndpoints(t *testing.T) {
	tc := newTestCluster(t, 3, 2)
	resp, err := http.Post(tc.ts.URL+"/v1/compress", "application/octet-stream", bytes.NewReader([]byte("x")))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("compress via router: status %d, want 404", resp.StatusCode)
	}
	if eb := decodeErr(t, resp); eb.Error.Code != "not_routable" {
		t.Fatalf("compress via router: code %q", eb.Error.Code)
	}
}
