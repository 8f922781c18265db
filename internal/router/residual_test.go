package router

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"path/filepath"
	"testing"
	"time"

	"rqm/internal/faultfs"
	"rqm/internal/store"
)

// Residual-layer cluster behavior: exact puts replicate the lossless tier,
// promote/demote run once and raw-sync to the peers, rebalance and
// read-repair move the residual alongside the container.

// exactGet reads the bit-exact tier through the router.
func (tc *testCluster) exactGet(t *testing.T, name string) (int, []byte, http.Header) {
	t.Helper()
	resp, err := http.Get(tc.ts.URL + "/v1/datasets/" + name + "?exact=1")
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

// rawResidual fetches the shard's residual file bytes verbatim.
func (s *testShard) rawResidual(t *testing.T, name string) []byte {
	t.Helper()
	resp, err := http.Get(s.ts.URL + "/v1/datasets/" + name + "?raw=1&residual=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("raw residual %s on %s: status %d", name, s.ts.URL, resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// corruptShardResidual flips one byte inside the first residual block's
// payload on sh — past the 52-byte file header and the 13-byte block head,
// squarely in CRC-covered territory.
func corruptShardResidual(t *testing.T, sh *testShard, name string) {
	t.Helper()
	p := filepath.Join(sh.st.Dir(), "datasets", name, store.ResidualFile)
	if err := faultfs.CorruptFile(p, 52+13+5); err != nil {
		t.Fatal(err)
	}
}

// TestClusterExactPutReplicatesResidual: a quorum write with ?exact=1 lands
// the residual on every replica, byte-identical (the codec is
// deterministic), and exact reads through the router return the original
// bit for bit.
func TestClusterExactPutReplicatesResidual(t *testing.T) {
	tc := newTestCluster(t, 3, 2)
	const name = "cl-exact"
	body := fieldBytes(t, 11)
	info, _ := tc.put(t, name, "mode=rel&eb=1e-3&chunk=512&exact=1", body)
	if !info.Exact || info.ResidualBytes == 0 {
		t.Fatalf("exact put info %+v — no residual layer recorded", info)
	}

	holders := tc.holders(t, name)
	if len(holders) != 2 {
		t.Fatalf("holders %v, want 2", holders)
	}
	a, b := tc.shards[holders[0]], tc.shards[holders[1]]
	ra, rb := a.rawResidual(t, name), b.rawResidual(t, name)
	if len(ra) == 0 || !bytes.Equal(ra, rb) {
		t.Fatalf("replica residuals differ (%d vs %d bytes)", len(ra), len(rb))
	}
	// The residual was built on exactly one shard; the other received it in
	// the raw sync frame.
	ma, mb := a.metrics(t), b.metrics(t)
	if ma.DatasetPuts+mb.DatasetPuts != 1 || ma.DatasetRawPuts+mb.DatasetRawPuts != 1 {
		t.Fatalf("exact put ran %d compressing puts and %d raw puts across the replicas, want 1 and 1",
			ma.DatasetPuts+mb.DatasetPuts, ma.DatasetRawPuts+mb.DatasetRawPuts)
	}

	code, got, hdr := tc.exactGet(t, name)
	if code != http.StatusOK {
		t.Fatalf("exact read via router: status %d", code)
	}
	if hdr.Get("X-RQM-Exact") != "1" {
		t.Fatalf("exact read missing X-RQM-Exact (headers %v)", hdr)
	}
	if !bytes.Equal(got, body) {
		t.Fatal("exact read through the router is not the original bytes")
	}
}

// TestClusterPromoteDemoteThroughRouter: promote runs on one replica and the
// peer receives the residual through the sync frame; demote drops the layer
// everywhere the same way; exact reads answer accordingly at each step.
func TestClusterPromoteDemoteThroughRouter(t *testing.T) {
	tc := newTestCluster(t, 3, 2)
	const name = "cl-prom"
	body := fieldBytes(t, 12)
	tc.put(t, name, "mode=rel&eb=1e-3&chunk=512", body)

	// Lossy dataset: the exact tier answers the typed 409 through the proxy.
	code, _, _ := tc.exactGet(t, name)
	if code != http.StatusConflict {
		t.Fatalf("exact read on lossy dataset: status %d, want 409", code)
	}

	// Promote with the true original; one replica does the work, the other
	// gets the bytes.
	resp, err := http.Post(tc.ts.URL+"/v1/datasets/"+name+"/promote", "application/octet-stream",
		bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("promote via router: status %d: %s", resp.StatusCode, raw)
	}
	if got := resp.Header.Get("X-RQM-Promote"); got != "promoted" {
		t.Fatalf("X-RQM-Promote = %q", got)
	}
	if got := resp.Header.Get("X-RQM-Replicas-Synced"); got != "1" {
		t.Fatalf("X-RQM-Replicas-Synced = %q, want 1", got)
	}
	holders := tc.holders(t, name)
	if len(holders) != 2 {
		t.Fatalf("holders after promote: %v", holders)
	}
	a, b := tc.shards[holders[0]], tc.shards[holders[1]]
	ia, _ := a.has(t, name)
	ib, _ := b.has(t, name)
	if !ia.Exact || !ib.Exact || ia.Generation != ib.Generation {
		t.Fatalf("replicas diverge after promote: %+v vs %+v", ia, ib)
	}
	if !bytes.Equal(a.rawResidual(t, name), b.rawResidual(t, name)) {
		t.Fatal("replica residuals differ after promote sync")
	}
	code, got, _ := tc.exactGet(t, name)
	if code != http.StatusOK || !bytes.Equal(got, body) {
		t.Fatalf("exact read after promote: status %d, identical=%v", code, bytes.Equal(got, body))
	}

	// Demote drops the layer on both replicas; exact reads 409 again while
	// the lossy tier keeps serving.
	dresp, err := http.Post(tc.ts.URL+"/v1/datasets/"+name+"/demote", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, dresp.Body)
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK || dresp.Header.Get("X-RQM-Demote") != "demoted" {
		t.Fatalf("demote via router: status %d, X-RQM-Demote %q", dresp.StatusCode, dresp.Header.Get("X-RQM-Demote"))
	}
	if got := dresp.Header.Get("X-RQM-Replicas-Synced"); got != "1" {
		t.Fatalf("demote X-RQM-Replicas-Synced = %q, want 1", got)
	}
	for _, h := range tc.holders(t, name) {
		if info, _ := tc.shards[h].has(t, name); info.Exact {
			t.Fatalf("shard %d still reports a residual after demote", h)
		}
	}
	code, _, _ = tc.exactGet(t, name)
	if code != http.StatusConflict {
		t.Fatalf("exact read after demote: status %d, want 409", code)
	}
	if code, lossy, _ := tc.get(t, name); code != http.StatusOK || len(lossy) == 0 {
		t.Fatalf("lossy read after demote: status %d", code)
	}

	m := tc.rt.Snapshot()
	if m.ProxiedPromotes != 1 || m.ProxiedDemotes != 1 {
		t.Fatalf("proxied promote/demote counters %d/%d, want 1/1", m.ProxiedPromotes, m.ProxiedDemotes)
	}
}

// TestClusterRebalanceCarriesResidual: after losing a replica of a promoted
// dataset, one rebalance pass restores R=2 with the residual riding the raw
// sync frame — the new copy deep-verifies and serves the exact tier.
func TestClusterRebalanceCarriesResidual(t *testing.T) {
	tc := newTestCluster(t, 3, 2)
	const name = "cl-rbres"
	body := fieldBytes(t, 13)
	tc.put(t, name, "mode=rel&eb=1e-3&chunk=512&exact=1", body)

	holders := tc.holders(t, name)
	if len(holders) != 2 {
		t.Fatalf("holders %v", holders)
	}
	survivor := tc.shards[holders[0]]
	goodRes := survivor.rawResidual(t, name)
	tc.shards[holders[1]].kill()

	rep, err := tc.rt.Rebalance(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Copied == 0 || rep.Failed != 0 {
		t.Fatalf("rebalance report %+v", rep)
	}

	// The new replica holds the full quality ladder.
	for i, sh := range tc.shards {
		info, ok := sh.has(t, name)
		if !ok {
			continue
		}
		if !info.Exact {
			t.Fatalf("shard %d lost the residual in migration: %+v", i, info)
		}
		if !bytes.Equal(sh.rawResidual(t, name), goodRes) {
			t.Fatalf("shard %d residual differs after rebalance", i)
		}
		if err := sh.st.VerifyDataset(name, true); err != nil {
			t.Fatalf("shard %d deep verify after rebalance: %v", i, err)
		}
	}
	code, got, _ := tc.exactGet(t, name)
	if code != http.StatusOK || !bytes.Equal(got, body) {
		t.Fatalf("exact read after rebalance: status %d", code)
	}
}

// TestChaosCorruptResidualReadRepair: one replica's residual file is
// byte-flipped on disk. Exact reads through the router never fail and never
// return a wrong byte — the rotten replica answers the typed corruption
// verdict, the router fails over, and read-repair re-replicates container +
// residual so the victim ends byte-identical to its peer again.
func TestChaosCorruptResidualReadRepair(t *testing.T) {
	tc := newTestCluster(t, 3, 2)
	const name = "cl-resheal"
	body := fieldBytes(t, 14)
	tc.put(t, name, "mode=rel&eb=1e-3&chunk=512&exact=1", body)

	holders := tc.holders(t, name)
	if len(holders) != 2 {
		t.Fatalf("holders %v", holders)
	}
	// Corrupt the primary so the very next exact read exercises failover.
	primary := tc.rt.ring.sequence(name)[0]
	victim := tc.shards[primary]
	goodRes := victim.rawResidual(t, name)
	goodInfo, _ := victim.has(t, name)

	corruptShardResidual(t, victim, name)
	if err := victim.st.VerifyDataset(name, false); err == nil {
		t.Fatal("victim still verifies after residual corruption")
	}

	failedOver := 0
	for i := 0; i < 10; i++ {
		code, got, hdr := tc.exactGet(t, name)
		if code != http.StatusOK {
			t.Fatalf("exact read %d with one corrupt residual: status %d", i, code)
		}
		if !bytes.Equal(got, body) {
			t.Fatalf("exact read %d returned wrong bytes", i)
		}
		if hdr.Get("X-RQM-Failover") != "" {
			failedOver++
		}
	}
	if failedOver == 0 {
		t.Fatal("no exact read failed over — the corrupt primary was never tried?")
	}

	// Read-repair is asynchronous; wait until the victim deep-verifies again.
	deadline := time.Now().Add(10 * time.Second)
	for {
		m := tc.rt.Snapshot()
		if m.ReadRepairs >= 1 && victim.st.VerifyDataset(name, true) == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("residual repair did not land: %+v, verify %v", m, victim.st.VerifyDataset(name, true))
		}
		time.Sleep(20 * time.Millisecond)
	}

	if !bytes.Equal(victim.rawResidual(t, name), goodRes) {
		t.Fatal("repaired residual differs from the original bytes")
	}
	healedInfo, ok := victim.has(t, name)
	if !ok || !healedInfo.Exact {
		t.Fatalf("healed replica lost the residual layer: %+v", healedInfo)
	}
	if !healedInfo.CreatedAt.Equal(goodInfo.CreatedAt) || healedInfo.Generation != goodInfo.Generation {
		t.Fatalf("repair changed the manifest version: %+v -> %+v", goodInfo, healedInfo)
	}
	code, got, _ := tc.exactGet(t, name)
	if code != http.StatusOK || !bytes.Equal(got, body) {
		t.Fatalf("exact read after repair: status %d", code)
	}
	if m := tc.rt.Snapshot(); m.ReadRepairFailures != 0 {
		t.Fatalf("read_repair_failures = %d", m.ReadRepairFailures)
	}
}
