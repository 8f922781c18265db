// Example cluster: the cluster serving tier end to end — three in-process
// rqserved shards behind one consistent-hash router (R=2 replication),
// exactly the multi-node shape of the paper's headline scenario. The
// walkthrough puts datasets through the router, kills a shard and reads
// straight through the failover, then runs a rebalance and watches
// replication heal by raw container copy: byte-identical migration, no
// recompression, generations preserved.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"net/http/httptest"
	"os"

	"rqm"
	"rqm/client"
	"rqm/internal/router"
	"rqm/internal/service"
	"rqm/internal/store"
)

// shard is one in-process rqserved equivalent. A real deployment runs
// `rqserved -addr :808N -store-dir /var/lib/rqm/N` per node.
type shard struct {
	srv *httptest.Server
	dir string
}

func newShard() (*shard, error) {
	dir, err := os.MkdirTemp("", "rqm-cluster-*")
	if err != nil {
		return nil, err
	}
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	svc, err := service.New(service.Config{Store: st})
	if err != nil {
		return nil, err
	}
	return &shard{srv: httptest.NewServer(svc), dir: dir}, nil
}

func main() {
	// --- 1. Three shards, one router -----------------------------------
	// Real deployment: `rqrouter -addr :9090 -shards http://s1:8080,...
	// -replicas 2`. The router is stateless — run several against the same
	// shard list for HA.
	var shards []*shard
	var urls []string
	for i := 0; i < 3; i++ {
		s, err := newShard()
		if err != nil {
			log.Fatal(err)
		}
		defer os.RemoveAll(s.dir)
		defer s.srv.Close()
		shards = append(shards, s)
		urls = append(urls, s.srv.URL)
	}
	rt, err := router.New(router.Config{Shards: urls, Replicas: 2, ProbeInterval: -1})
	if err != nil {
		log.Fatal(err)
	}
	defer rt.Close()
	front := httptest.NewServer(rt)
	defer front.Close()

	// The same client that talks to a single shard talks to the router.
	c, err := client.New(front.URL)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()

	// --- 2. Put datasets through the router ----------------------------
	// Each put is compressed on one of its 2 ring-placed replicas, raw-synced
	// to the other, and needs a write quorum; the response is the shard's own
	// answer plus replica headers.
	names := []string{"nyx-temp", "nyx-dens", "cesm-ts", "hurricane-u"}
	for i, name := range names {
		g, err := rqm.GenerateField("nyx/temperature", uint64(i+1), rqm.ScaleSmall)
		if err != nil {
			log.Fatal(err)
		}
		f, err := rqm.FieldFromData(name, rqm.Float64, g.Data, g.Dims...)
		if err != nil {
			log.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := f.WriteTo(&buf); err != nil {
			log.Fatal(err)
		}
		info, err := c.PutDataset(ctx, name, &buf, client.PutDatasetParams{
			Mode: "rel", ErrorBound: 1e-3, ChunkValues: 4096,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("put %-12s %8d values  ratio %6.2fx  gen %d\n",
			info.Name, info.TotalValues, info.Ratio, info.Generation)
	}

	// Probing is disabled above (ProbeInterval: -1) so the walkthrough is
	// deterministic; sweep once by hand so status shows dataset counts. A
	// real rqrouter probes on its own every -probe-interval.
	rt.ProbeNow(ctx)
	status, err := c.RouterStatus(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncluster: %d/%d shards healthy, R=%d (quorum %d)\n",
		status.Healthy, len(status.Shards), status.Replicas, status.Quorum)
	for _, sh := range status.Shards {
		fmt.Printf("  %-28s healthy=%-5v datasets=%d\n", sh.URL, sh.Healthy, sh.Datasets)
	}

	// --- 3. Kill a shard; reads keep working ---------------------------
	// Every dataset has a second replica; the router fails the read over
	// within the same request. Nothing for the caller to do.
	fmt.Printf("\nkilling shard %s\n", urls[0])
	shards[0].srv.Close()
	for _, name := range names {
		var out bytes.Buffer
		if err := c.GetDataset(ctx, name, &out); err != nil {
			log.Fatalf("read %s after shard kill: %v", name, err)
		}
		fmt.Printf("read %-12s -> %7d bytes (failover transparent)\n", name, out.Len())
	}
	m, err := c.RouterMetricsSnapshot(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("router counters: %d gets proxied, %d failovers\n", m.ProxiedGets, m.Failovers)

	// --- 4. Rebalance: replication heals by raw copy -------------------
	// Datasets that kept only one live replica are re-replicated onto
	// their ring successors by streaming the raw container — the bytes
	// move verbatim (no decompression, no recompression) and the manifest
	// version (created_at, generation) is preserved bit for bit.
	rep, err := c.Rebalance(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nrebalance: %d datasets over %d live shards — %d copied (%d bytes moved), %d already placed, %d failed\n",
		rep.Datasets, rep.ShardsLive, rep.Copied, rep.BytesMoved, rep.Skipped, rep.Failed)

	rt.ProbeNow(ctx)
	status, err = c.RouterStatus(ctx)
	if err != nil {
		log.Fatal(err)
	}
	for _, sh := range status.Shards {
		fmt.Printf("  %-28s healthy=%-5v datasets=%d\n", sh.URL, sh.Healthy, sh.Datasets)
	}

	// A second pass moves nothing: rebalance is idempotent at the byte
	// level, so running it on a timer is safe.
	rep, err = c.Rebalance(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("second pass: %d copied, %d bytes moved (idempotent)\n", rep.Copied, rep.BytesMoved)
}
