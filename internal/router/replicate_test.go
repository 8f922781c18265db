package router

import (
	"bytes"
	"context"
	"math"
	"net/http"
	"sync"
	"testing"

	"rqm"
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
// syncs like any other — the router reads the source manifest under the
// same cap the raw-put endpoint enforces.
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
