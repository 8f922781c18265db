package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
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
)

// The replicated write path: a routed put compresses once and the other
// members of the write set receive the committed bytes by raw sync.

// TestClusterPutCompressesOnce: one put through a 3-shard R=2 router costs
// the fleet exactly one compressing put and one raw put, joined by one sync.
func TestClusterPutCompressesOnce(t *testing.T) {
	tc := newTestCluster(t, 3, 2)
	tc.put(t, "cl-once", "mode=abs&eb=0.01&chunk=512", fieldBytes(t, 1))

	var puts, rawPuts int64
	for _, sh := range tc.shards {
		m := sh.metrics(t)
		puts += m.DatasetPuts
		rawPuts += m.DatasetRawPuts
	}
	if puts != 1 || rawPuts != 1 {
		t.Fatalf("fleet ran %d compressing puts and %d raw puts for one routed put, want 1 and 1", puts, rawPuts)
	}
	if m := tc.rt.Snapshot(); m.ReplicaSyncs != 1 || m.ReplicaSyncFailures != 0 {
		t.Fatalf("router replica_syncs = %d (failures %d), want 1 (0)", m.ReplicaSyncs, m.ReplicaSyncFailures)
	}
}

// TestClusterPutIdenticalAcrossShardDefaults: replicas are byte-identical by
// construction, not by coincidence of configuration — two shards whose
// default engines would encode the same field differently still end up with
// one container, copied.
func TestClusterPutIdenticalAcrossShardDefaults(t *testing.T) {
	var shards []*testShard
	for _, codec := range []string{rqm.CodecPredictionName, rqm.CodecPredictionTANSName} {
		eng, err := rqm.NewEngine(rqm.WithCodecName(codec))
		if err != nil {
			t.Fatal(err)
		}
		shards = append(shards, newShardWith(t, eng))
	}
	rt, ts := newRouterOver(t, shards, 2)
	tc := &testCluster{shards: shards, rt: rt, ts: ts}

	// No codec in the request: each shard's own default would apply.
	_, resp := tc.put(t, "cl-mixed", "chunk=512", fieldBytes(t, 1))
	if got := resp.Header.Get("X-RQM-Replicas"); got != "2/2" {
		t.Fatalf("X-RQM-Replicas = %q, want 2/2", got)
	}
	a, b := shards[0], shards[1]
	if !bytes.Equal(a.raw(t, "cl-mixed"), b.raw(t, "cl-mixed")) {
		t.Fatal("replica containers differ across shards with different default engines")
	}
	ma, err := a.st.Manifest("cl-mixed")
	if err != nil {
		t.Fatal(err)
	}
	mb, err := b.st.Manifest("cl-mixed")
	if err != nil {
		t.Fatal(err)
	}
	if ma.ContainerHash == "" || ma.ContainerHash != mb.ContainerHash || ma.Codec != mb.Codec {
		t.Fatalf("replica manifests diverge: %s/%s vs %s/%s", ma.Codec, ma.ContainerHash, mb.Codec, mb.ContainerHash)
	}
}

// TestClusterConcurrentPutsConverge: writers racing on one name leave the
// replicas on one version — no rebalance needed to reconcile them.
func TestClusterConcurrentPutsConverge(t *testing.T) {
	const writers = 8
	tc := newTestCluster(t, 3, 2)
	bodies := make([][]byte, writers)
	for i := range bodies {
		bodies[i] = fieldBytes(t, uint64(i+1))
	}
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(body []byte) {
			defer wg.Done()
			resp, err := http.Post(tc.ts.URL+"/v1/datasets/cl-race?mode=abs&eb=0.01&chunk=512",
				"application/octet-stream", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusCreated || resp.Header.Get("X-RQM-Replicas") != "2/2" {
				t.Errorf("racing put: status %d, X-RQM-Replicas %q", resp.StatusCode, resp.Header.Get("X-RQM-Replicas"))
			}
		}(bodies[i])
	}
	wg.Wait()

	holders := tc.holders(t, "cl-race")
	if len(holders) != 2 {
		t.Fatalf("holders %v, want 2", holders)
	}
	ma, err := tc.shards[holders[0]].st.Manifest("cl-race")
	if err != nil {
		t.Fatal(err)
	}
	mb, err := tc.shards[holders[1]].st.Manifest("cl-race")
	if err != nil {
		t.Fatal(err)
	}
	if !ma.CreatedAt.Equal(mb.CreatedAt) || ma.Generation != mb.Generation || ma.ContainerHash != mb.ContainerHash {
		t.Fatalf("replicas diverge after %d racing puts: (%s, %d, %s) vs (%s, %d, %s)", writers,
			ma.CreatedAt, ma.Generation, ma.ContainerHash, mb.CreatedAt, mb.Generation, mb.ContainerHash)
	}
}

// TestSyncLargeManifest: a dataset whose full manifest is past 1 MiB (here
// by chunk count; in production by the profile blob of a ~10M-value field)
// syncs like any other — the frame carries it under the cap the raw-put
// endpoint enforces.
func TestSyncLargeManifest(t *testing.T) {
	const n = 40000
	data := make([]float64, n)
	for i := range data {
		data[i] = math.Sin(float64(i) / 50)
	}
	f, err := rqm.FieldFromData("big-manifest", rqm.Float64, data, n)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}

	tc := newTestCluster(t, 3, 2)
	tc.put(t, "cl-bigman", "mode=abs&eb=0.01&chunk=2", buf.Bytes())
	holders := tc.holders(t, "cl-bigman")
	if len(holders) != 2 {
		t.Fatalf("holders %v, want 2", holders)
	}
	src, outsider := holders[0], 3-holders[0]-holders[1]
	mresp, err := http.Get(tc.shards[src].ts.URL + "/v1/datasets/cl-bigman?manifest=1&full=1")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var man bytes.Buffer
	if _, err := man.ReadFrom(mresp.Body); err != nil {
		t.Fatal(err)
	}
	if man.Len() <= errBodyLimit {
		t.Fatalf("full manifest is %d bytes — the test needs one past %d", man.Len(), errBodyLimit)
	}

	_, status, err := tc.rt.syncReplica(context.Background(), tc.rt.shards[src], tc.rt.shards[outsider], "cl-bigman")
	if err != nil || status != http.StatusCreated {
		t.Fatalf("sync of a %d-byte manifest: status %d, err %v", man.Len(), status, err)
	}
	if !bytes.Equal(tc.shards[src].raw(t, "cl-bigman"), tc.shards[outsider].raw(t, "cl-bigman")) {
		t.Fatal("synced container differs from its source")
	}
}

// TestClusterPutsRacingRebalance: rebalance and read-repair sync through the
// same per-name lock as a routed put, so a pass that copies a dataset while
// writers race on it never reads a source mid-commit — no sync is refused,
// and one more pass leaves every replica on one version.
func TestClusterPutsRacingRebalance(t *testing.T) {
	const writers = 6
	tc := newTestCluster(t, 3, 2)
	tc.put(t, "cl-rr", "mode=abs&eb=0.01&chunk=512", fieldBytes(t, 99))
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(body []byte) {
			defer wg.Done()
			resp, err := http.Post(tc.ts.URL+"/v1/datasets/cl-rr?mode=abs&eb=0.01&chunk=512",
				"application/octet-stream", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusCreated {
				t.Errorf("put racing a rebalance: status %d", resp.StatusCode)
			}
		}(fieldBytes(t, uint64(i+1)))
	}
	stop := make(chan struct{})
	passes := make(chan struct{})
	go func() {
		defer close(passes)
		for {
			select {
			case <-stop:
				return
			default:
				if _, err := tc.rt.Rebalance(context.Background()); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-passes
	if _, err := tc.rt.Rebalance(context.Background()); err != nil {
		t.Fatal(err)
	}
	if m := tc.rt.Snapshot(); m.ReplicaSyncFailures != 0 {
		t.Fatalf("replica_sync_failures = %d after puts racing rebalance, want 0", m.ReplicaSyncFailures)
	}
	holders := tc.holders(t, "cl-rr")
	if len(holders) != 2 {
		t.Fatalf("holders %v, want 2", holders)
	}
	ma, err := tc.shards[holders[0]].st.Manifest("cl-rr")
	if err != nil {
		t.Fatal(err)
	}
	mb, err := tc.shards[holders[1]].st.Manifest("cl-rr")
	if err != nil {
		t.Fatal(err)
	}
	if !ma.CreatedAt.Equal(mb.CreatedAt) || ma.Generation != mb.Generation || ma.ContainerHash != mb.ContainerHash {
		t.Fatalf("replicas diverge: (%s, %d, %s) vs (%s, %d, %s)",
			ma.CreatedAt, ma.Generation, ma.ContainerHash, mb.CreatedAt, mb.Generation, mb.ContainerHash)
	}
}

// TestClusterListLargeShard: a shard's listing has no size cap — a shard
// holding thousands of datasets answers megabytes, and every one of them
// must appear in the merged list.
func TestClusterListLargeShard(t *testing.T) {
	const n = 6000
	var lr service.ListDatasetsResponse
	for i := 0; i < n; i++ {
		lr.Datasets = append(lr.Datasets, service.DatasetInfo{
			Name: fmt.Sprintf("ds-%05d", i), PrecBits: 64, Dims: []int{64, 64, 64},
			Codec: "prediction", Predictor: "lorenzo", Mode: "rel", ErrorBound: 1e-3, Lossless: "none",
			ContentHash: strings.Repeat("ab", 32), TotalValues: 262144, OriginalBytes: 2097152,
			ContainerBytes: 209715, Ratio: 10, Chunks: 4, Profiled: true,
		})
	}
	listing, err := json.Marshal(&lr)
	if err != nil {
		t.Fatal(err)
	}
	if len(listing) < 2<<20 {
		t.Fatalf("synthetic listing is %d bytes — the test needs one past 2 MiB", len(listing))
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		json.NewEncoder(w).Encode(&service.HealthResponse{Status: "ok", Store: true, Datasets: n})
	})
	mux.HandleFunc("/v1/datasets", func(w http.ResponseWriter, _ *http.Request) { w.Write(listing) })
	shard := httptest.NewServer(mux)
	t.Cleanup(shard.Close)
	rt, err := New(Config{Shards: []string{shard.URL}, Replicas: 1, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)

	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/datasets", nil))
	var got service.ListDatasetsResponse
	if err := json.NewDecoder(rec.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if listed := rec.Header().Get("X-RQM-Shards-Listed"); listed != "1/1" || len(got.Datasets) != n {
		t.Fatalf("listed %s with %d datasets, want 1/1 with %d", listed, len(got.Datasets), n)
	}
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// waitParked waits until n goroutines wait on a name's lock: inside
// lockName, which returns at once when the lock is free.
func waitParked(t *testing.T, n int) {
	t.Helper()
	faultfs.WaitFor(t, 10*time.Second, func() error {
		buf := make([]byte, 1<<20)
		m := runtime.Stack(buf, true)
		for ; m == len(buf); m = runtime.Stack(buf, true) {
			buf = make([]byte, 2*len(buf))
		}
		if got := strings.Count(string(buf[:m]), "router.(*Router).lockName("); got != n {
			return fmt.Errorf("%d goroutines wait on a name's lock, want %d", got, n)
		}
		return nil
	})
}

// TestRebalanceKeepsStrayWhenTargetDies: a desired shard that dies after the
// pass planned its copy — here while the pass waits on the name's lock — is a
// failed sync, not a skipped one, so the stray copy, the only one, is kept.
func TestRebalanceKeepsStrayWhenTargetDies(t *testing.T) {
	const name = "rb-stray"
	shards := []*testShard{newShard(t), newShard(t)}
	rt, err := New(Config{Shards: []string{shards[0].ts.URL, shards[1].ts.URL}, Replicas: 1, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	desired := rt.writeTargets(name)[0]
	stray, home := shards[0], shards[1]
	if desired.url == stray.ts.URL {
		stray, home = home, stray
	}
	resp, err := http.Post(stray.ts.URL+"/v1/datasets/"+name+"?mode=abs&eb=0.01", "application/octet-stream",
		bytes.NewReader(fieldBytes(t, 7)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	unlock := rt.lockName(name)
	done := make(chan *RebalanceReport)
	go func() {
		rep, err := rt.Rebalance(context.Background())
		if err != nil {
			t.Error(err)
		}
		done <- rep
	}()
	// The pass has planned its copy once it waits on the name's lock.
	waitParked(t, 1)
	home.kill()
	desired.markUnreachable(errors.New("killed"))
	unlock()

	rep := <-done
	if rep == nil || rep.Failed != 1 || rep.Copied != 0 || rep.Removed != 0 {
		t.Fatalf("report %+v, want one failed copy and nothing removed", rep)
	}
	if _, ok := stray.has(t, name); !ok {
		t.Fatal("the only copy of the dataset was removed")
	}
}

// TestClusterPutSyncsBeforeNextPut: a routed put and its peer sync are one
// critical section per name, so racing puts reach the shards strictly as
// mutation, sync, mutation, sync — the peer is shipped the version its own
// request committed, never a later writer's.
func TestClusterPutSyncsBeforeNextPut(t *testing.T) {
	const writers = 6
	shards := []*testShard{newShard(t), newShard(t)}
	var mu sync.Mutex
	var order []string
	client := &http.Client{Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
		if r.Method == http.MethodPost {
			mu.Lock()
			order = append(order, r.URL.Path)
			mu.Unlock()
		}
		return http.DefaultTransport.RoundTrip(r)
	})}
	rt, err := New(Config{Shards: []string{shards[0].ts.URL, shards[1].ts.URL}, Replicas: 2, ProbeInterval: -1, Client: client})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	// Every writer queues on the name's lock before the first one runs, so
	// each mutation and its sync run with the remaining writers waiting.
	unlock := rt.lockName("cl-seq")
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(body []byte) {
			defer wg.Done()
			rec := httptest.NewRecorder()
			rt.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/datasets/cl-seq?mode=abs&eb=0.01", bytes.NewReader(body)))
			if rec.Code != http.StatusCreated || rec.Header().Get("X-RQM-Replicas") != "2/2" {
				t.Errorf("racing put: status %d, replicas %q", rec.Code, rec.Header().Get("X-RQM-Replicas"))
			}
		}(fieldBytes(t, uint64(i+1)))
	}
	waitParked(t, writers)
	unlock()
	wg.Wait()
	if len(order) != 2*writers {
		t.Fatalf("%d shard posts, want %d", len(order), 2*writers)
	}
	for i := 0; i < len(order); i += 2 {
		if order[i] != "/v1/datasets/cl-seq" || order[i+1] != "/v1/datasets/cl-seq/raw" {
			t.Fatalf("shard posts interleave: %v", order)
		}
	}
}
