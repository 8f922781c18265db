package router

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"rqm/internal/service"
	"rqm/internal/store"
)

// TestSyncIsOneSourceRead: a sync reads its source once — one GET of the
// raw-put frame — for a lossy dataset and for an exact one, and the source
// shallow-verifies its copy once: chunks_verified grows by one pass over
// the chunks and the residual blocks. The bytes moved are the frame's.
func TestSyncIsOneSourceRead(t *testing.T) {
	tc := newTestCluster(t, 3, 2)
	for _, exact := range []bool{false, true} {
		name, query := "cl-lossy", "mode=abs&eb=0.01&chunk=512"
		if exact {
			name, query = "cl-exact", query+"&exact=1"
		}
		tc.put(t, name, query, fieldBytes(t, 5))
		holders := tc.holders(t, name)
		if len(holders) != 2 {
			t.Fatalf("%s: holders %v", name, holders)
		}
		src, outsider := tc.shards[holders[0]], 3-holders[0]-holders[1]
		m, err := src.st.Manifest(name)
		if err != nil {
			t.Fatal(err)
		}
		pass := int64(len(m.Chunks))
		if exact {
			pass *= 2 // a residual block per chunk
		}

		before := src.svc.Snapshot()
		n, status, err := tc.rt.syncReplica(context.Background(), tc.rt.shards[holders[0]], tc.rt.shards[outsider], name)
		after := src.svc.Snapshot()
		if err != nil || status != http.StatusCreated {
			t.Fatalf("%s: sync: status %d, err %v", name, status, err)
		}
		if got := after.Requests - before.Requests; got != 1 {
			t.Errorf("%s: the sync made %d requests to its source, want 1", name, got)
		}
		if got := after.DatasetGets - before.DatasetGets; got != 1 {
			t.Errorf("%s: the sync made %d dataset reads on its source, want 1", name, got)
		}
		if got := after.ChunksVerified - before.ChunksVerified; got != pass {
			t.Errorf("%s: the source verified %d chunks and blocks, want one pass of %d", name, got, pass)
		}
		resp, err := http.Get(src.ts.URL + "/v1/datasets/" + name + "/raw")
		if err != nil {
			t.Fatal(err)
		}
		frame, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || n != int64(len(frame)) {
			t.Errorf("%s: the sync moved %d bytes, the frame is %d (err %v)", name, n, len(frame), err)
		}
		if !bytes.Equal(src.raw(t, name), tc.shards[outsider].raw(t, name)) {
			t.Errorf("%s: synced container differs from its source", name)
		}
	}
}

// TestSyncFromShardWithoutRawGet: a shard from before GET /raw answers it
// 405, as its route table has only POST there. A sync from it fails and is
// counted in replica_sync_failures — never skipped silently — which is why
// shards are upgraded before routers.
func TestSyncFromShardWithoutRawGet(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	svc, err := service.New(service.Config{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && strings.HasSuffix(r.URL.Path, "/raw") {
			w.Header().Set("Allow", http.MethodPost)
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusMethodNotAllowed)
			io.WriteString(w, `{"error":{"code":"method_not_allowed","message":"only accepts POST"}}`)
			return
		}
		svc.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	old, target := &testShard{svc: svc, st: st, ts: ts}, newShard(t)
	rt, _ := newRouterOver(t, []*testShard{old, target}, 2)

	resp, err := http.Post(ts.URL+"/v1/datasets/cl-old?mode=abs&eb=0.01", "application/octet-stream", bytes.NewReader(fieldBytes(t, 6)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("put on the old shard: status %d", resp.StatusCode)
	}
	res := rt.converge(context.Background(), "cl-old", rt.shards[0], rt.shards[1:])
	if len(res) != 1 || res[0].err == nil || !strings.Contains(res[0].err.Error(), "405") {
		t.Fatalf("sync from a shard without GET /raw: %+v, want a failure naming the 405", res)
	}
	if m := rt.Snapshot(); m.ReplicaSyncFailures != 1 || m.ReplicaSyncs != 0 {
		t.Fatalf("replica_syncs %d, replica_sync_failures %d, want 0 and 1", m.ReplicaSyncs, m.ReplicaSyncFailures)
	}
	if _, ok := target.has(t, "cl-old"); ok {
		t.Fatal("the target holds a copy after a failed sync")
	}
}
