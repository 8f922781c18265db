package router

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"rqm/internal/grid"
	"rqm/internal/store"
)

// restamp moves the created_at of sh's copy of name by d through sh's own
// POST /raw: the frame GET /raw serves, with only the manifest's stamp
// changed. It is how a shard whose clock ran fast would have stamped it.
func restamp(t *testing.T, sh *testShard, name string, d time.Duration) {
	t.Helper()
	resp, err := http.Get(sh.ts.URL + "/v1/datasets/" + name + "/raw")
	if err != nil {
		t.Fatal(err)
	}
	frame, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("raw get of %s: status %d (%v)", name, resp.StatusCode, err)
	}
	n := binary.BigEndian.Uint32(frame)
	m, err := store.ParseManifest(frame[4 : 4+n])
	if err != nil {
		t.Fatal(err)
	}
	m.CreatedAt = m.CreatedAt.Add(d)
	man, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	body := slices.Concat(binary.BigEndian.AppendUint32(nil, uint32(len(man))), man, frame[4+n:])
	resp, err = http.Post(sh.ts.URL+"/v1/datasets/"+name+"/raw", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("restamp of %s on %s: status %d, want 201", name, sh.ts.URL, resp.StatusCode)
	}
}

// revive restarts a killed shard at its old address, over the store it had.
func (s *testShard) revive(t *testing.T) {
	t.Helper()
	l, err := net.Listen("tcp", s.ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	s.ts = &httptest.Server{Listener: l, Config: &http.Server{Handler: s.svc}}
	s.ts.Start()
	t.Cleanup(s.ts.Close)
}

// TestClockSkewCannotRollBackAPut: a shard whose clock ran fast stamped v1
// a minute ahead, and a rebalance spread that copy. With that shard down,
// v2 is put and acknowledged; once it is back, a rebalance must spread v2,
// not the copy of v1 whose stamp reads later than v2's clock.
func TestClockSkewCannotRollBackAPut(t *testing.T) {
	tc := newTestCluster(t, 3, 3)
	const name = "cl-skew"
	tc.put(t, name, "mode=abs&eb=0.01", fieldBytes(t, 1))
	fast := tc.shards[0]
	restamp(t, fast, name, time.Minute)
	if rep, err := tc.rt.Rebalance(context.Background()); err != nil || rep.Copied != 2 {
		t.Fatalf("rebalance spreading the fast shard's stamp: %+v (%v), want 2 copied", rep, err)
	}

	fast.kill()
	tc.rt.ProbeNow(context.Background())
	v2, _ := tc.put(t, name, "mode=abs&eb=0.01", fieldBytes(t, 2))

	fast.revive(t)
	if _, err := tc.rt.Rebalance(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i, sh := range tc.shards {
		if info, ok := sh.has(t, name); !ok || info.ContentHash != v2.ContentHash {
			t.Errorf("shard %d holds content %.12s after the rebalance (held %v), want the acknowledged put's %.12s",
				i, info.ContentHash, ok, v2.ContentHash)
		}
	}
}

// TestRefusedSyncIsNotAReplica: a peer that answers a put's sync 409,
// because it holds a copy stamped later, does not hold the put. With R = 2
// the put has reached one replica of two, short of quorum, and the 502
// names the peer that refused.
func TestRefusedSyncIsNotAReplica(t *testing.T) {
	tc := newTestCluster(t, 2, 2)
	const name = "cl-refused"
	tc.put(t, name, "mode=abs&eb=0.01", fieldBytes(t, 1))
	peer := tc.shards[tc.rt.ring.sequence(name)[1]]
	restamp(t, peer, name, time.Minute)

	resp, err := http.Post(tc.ts.URL+"/v1/datasets/"+name+"?mode=abs&eb=0.01", "application/octet-stream",
		bytes.NewReader(fieldBytes(t, 2)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("put whose sync the peer refused: status %d, X-RQM-Replicas %q, want 502",
			resp.StatusCode, resp.Header.Get("X-RQM-Replicas"))
	}
	eb := decodeErr(t, resp)
	if msg := eb.Error.Message; eb.Error.Code != "quorum_failed" || !strings.Contains(msg, "write reached 1/2 replicas") ||
		!strings.Contains(msg, peer.ts.URL) {
		t.Fatalf("quorum failure %s %q does not name the refusing peer %s", eb.Error.Code, msg, peer.ts.URL)
	}
}

// TestRoutedSlice: a slice through the router answers the values the
// shard's own slice does, fails over past a killed replica, and is counted.
func TestRoutedSlice(t *testing.T) {
	tc := newTestCluster(t, 3, 2)
	const name, path = "cl-slice", "/v1/datasets/cl-slice/slice?off=100&len=700"
	tc.put(t, name, "mode=abs&eb=0.01&chunk=512", fieldBytes(t, 1))
	slice := func(base string) ([]float64, http.Header) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("slice from %s: status %d", base, resp.StatusCode)
		}
		f, err := grid.ReadFrom(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return f.Data, resp.Header
	}
	seq := tc.rt.ring.sequence(name)
	want, _ := slice(tc.shards[seq[0]].ts.URL)
	if len(want) != 700 {
		t.Fatalf("the shard's slice holds %d values, want 700", len(want))
	}
	if got, hdr := slice(tc.ts.URL); !slices.Equal(got, want) || hdr.Get("X-RQM-Offset") != "100" {
		t.Fatalf("routed slice differs from the shard's own (offset %q)", hdr.Get("X-RQM-Offset"))
	}

	tc.shards[seq[0]].kill()
	got, hdr := slice(tc.ts.URL)
	if !slices.Equal(got, want) || hdr.Get("X-RQM-Failover") != "1" || hdr.Get("X-RQM-Shard") != tc.shards[seq[1]].ts.URL {
		t.Fatalf("slice past a killed replica: equal %v, failover %q, shard %q",
			slices.Equal(got, want), hdr.Get("X-RQM-Failover"), hdr.Get("X-RQM-Shard"))
	}
	if m := tc.rt.Snapshot(); m.ProxiedSlices != 2 || m.Failovers != 1 {
		t.Fatalf("proxied_slices %d, failovers %d, want 2 and 1", m.ProxiedSlices, m.Failovers)
	}
}
