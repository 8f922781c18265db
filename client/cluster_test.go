package client

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"rqm/internal/router"
)

// newRouterClient stands up n store-backed shards behind an in-process
// router with R replicas, and returns a client for the router and one for
// each shard.
func newRouterClient(t *testing.T, n, replicas int) (*Client, []*Client) {
	t.Helper()
	shards := make([]*Client, n)
	urls := make([]string, n)
	for i := range shards {
		shards[i] = newDatasetClient(t)
		urls[i] = shards[i].base
	}
	rt, err := router.New(router.Config{Shards: urls, Replicas: replicas, ProbeInterval: -1, FailAfter: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	ts := httptest.NewServer(rt)
	t.Cleanup(ts.Close)
	c, err := New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	return c, shards
}

// TestClusterClient drives the router methods: the status names every
// shard with the ring's shape, a rebalance copies a dataset written to one
// shard alone onto its replicas and a second pass moves nothing, and the
// metrics count both passes and what the first moved.
func TestClusterClient(t *testing.T) {
	rc, shards := newRouterClient(t, 3, 2)
	ctx := context.Background()

	st, err := rc.RouterStatus(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Shards) != 3 || st.Healthy != 3 || st.Replicas != 2 || st.Quorum != 2 || st.VNodes != 64 ||
		st.RingPoints != 3*64 {
		t.Fatalf("status %+v", st)
	}
	for i, sh := range st.Shards {
		if sh.URL != shards[i].base || !sh.Healthy || sh.ConsecutiveFailures != 0 {
			t.Fatalf("shard %d status %+v, url %s", i, sh, shards[i].base)
		}
	}

	_, body := fieldBytes(t)
	params := PutDatasetParams{Mode: "abs", ErrorBound: 1e-2, ChunkValues: 512}
	if _, err := rc.PutDataset(ctx, "routed", bytes.NewReader(body), params); err != nil {
		t.Fatal(err)
	}
	if _, err := shards[0].PutDataset(ctx, "stray", bytes.NewReader(body), params); err != nil {
		t.Fatal(err)
	}

	rep, err := rc.Rebalance(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ShardsLive != 3 || rep.Datasets != 2 || rep.Copied < 1 || rep.Failed != 0 || rep.Conflicts != 0 ||
		rep.BytesMoved <= 0 {
		t.Fatalf("first rebalance %+v", rep)
	}
	holders := 0
	for _, sc := range shards {
		if _, err := sc.StatDataset(ctx, "stray"); err == nil {
			holders++
		}
	}
	if holders != 2 {
		t.Fatalf("stray dataset on %d shards after rebalance, want 2", holders)
	}
	again, err := rc.Rebalance(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if again.Datasets != 2 || again.Copied != 0 || again.Removed != 0 || again.Failed != 0 || again.BytesMoved != 0 {
		t.Fatalf("second rebalance %+v", again)
	}

	m, err := rc.RouterMetricsSnapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rebalances != 2 || m.RebalanceCopied != int64(rep.Copied) || m.RebalanceRemoved != int64(rep.Removed) ||
		m.RebalanceBytesMoved != rep.BytesMoved || m.ProxiedPuts != 1 || m.Requests < 5 {
		t.Fatalf("metrics %+v after rebalances %+v and %+v", m, rep, again)
	}

	// A shard has no cluster tier: the call surfaces its 404.
	var apiErr *APIError
	if _, err := shards[0].RouterStatus(ctx); !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Fatalf("router status from a shard: %v", err)
	}
}

// TestScrubClient drives both scrub calls against a store-backed service:
// a started pass reports running with its depth, and polling its status
// reaches a clean report over every stored dataset.
func TestScrubClient(t *testing.T) {
	c := newDatasetClient(t)
	ctx := context.Background()

	idle, err := c.ScrubStatus(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if idle.State != "idle" || idle.Report != nil {
		t.Fatalf("status before any pass %+v", idle)
	}

	_, body := fieldBytes(t)
	for _, name := range []string{"s1", "s2"} {
		if _, err := c.PutDataset(ctx, name, bytes.NewReader(body), PutDatasetParams{
			Mode: "abs", ErrorBound: 1e-2, ChunkValues: 512,
		}); err != nil {
			t.Fatal(err)
		}
	}

	for _, deep := range []bool{false, true} {
		started, err := c.StartScrub(ctx, deep)
		if err != nil {
			t.Fatal(err)
		}
		if started.State != "running" || started.Deep != deep || started.StartedAt.IsZero() {
			t.Fatalf("deep=%v: start answered %+v", deep, started)
		}
		st := waitScrub(t, c)
		if st.State != "done" || st.Deep != deep || st.Error != "" || st.FinishedAt.Before(st.StartedAt) {
			t.Fatalf("deep=%v: finished pass %+v", deep, st)
		}
		rep := st.Report
		if rep == nil || rep.Deep != deep || rep.Datasets != 2 || rep.ChunksVerified <= 0 || rep.BytesScanned <= 0 ||
			rep.DatasetsQuarantined != 0 || len(rep.Issues) != 0 {
			t.Fatalf("deep=%v: report %+v", deep, rep)
		}
	}
}

// waitScrub polls the scrub status until the pass stops running.
func waitScrub(t *testing.T, c *Client) *ScrubStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := c.ScrubStatus(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if st.State != "running" {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("scrub still running after 30 s: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
