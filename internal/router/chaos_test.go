package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"rqm/internal/faultfs"
	"rqm/internal/service"
	"rqm/internal/store"
)

// The chaos suite: fault-injected corruption and hangs against the full
// store → service → router stack, pinning the self-healing contract from
// the client's point of view — injected corruption yields typed errors and
// repairs, never a panic, never a wrong byte, and (with a healthy replica
// left) never a failed read.

// corruptShardContainer flips one byte inside the first chunk's payload of
// name's container on sh — persistent on-disk rot the shard's
// verify-before-serve must catch.
func corruptShardContainer(t *testing.T, sh *testShard, name string) {
	t.Helper()
	m, err := sh.st.Manifest(name)
	if err != nil {
		t.Fatal(err)
	}
	p, err := sh.st.ContainerPath(name)
	if err != nil {
		t.Fatal(err)
	}
	if err := faultfs.CorruptFile(p, m.Chunks[0].Offset+22+5); err != nil {
		t.Fatal(err)
	}
}

// shardScrub runs one shallow scrub on a shard over HTTP and returns the
// finished status.
func shardScrub(t *testing.T, sh *testShard) service.ScrubStatusResponse {
	t.Helper()
	resp, err := http.Post(sh.ts.URL+"/v1/scrub", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("scrub start: status %d", resp.StatusCode)
	}
	var st service.ScrubStatusResponse
	faultfs.WaitFor(t, 10*time.Second, func() error {
		sresp, err := http.Get(sh.ts.URL + "/v1/scrub/status")
		if err != nil {
			t.Fatal(err)
		}
		defer sresp.Body.Close()
		st = service.ScrubStatusResponse{}
		if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		if st.State == "running" {
			return fmt.Errorf("shard scrub still running: %+v", st)
		}
		return nil
	})
	return st
}

// repaired reports whether a read-repair of name on victim has landed: the
// router has counted one and the victim's copy deep-verifies.
func repaired(tc *testCluster, victim *testShard, name string) error {
	m := tc.rt.Snapshot()
	err := victim.st.VerifyDataset(name, true)
	if m.ReadRepairs < 1 || err != nil {
		return fmt.Errorf("repair did not land: read_repairs %d, failures %d, verify %v",
			m.ReadRepairs, m.ReadRepairFailures, err)
	}
	return nil
}

// TestChaosCorruptReplicaReadRepair is the acceptance scenario: one
// replica's container is byte-flipped ON DISK in a 3-shard R=2 cluster.
// Every client read through the router keeps returning the correct data
// with zero failures; the router records a read-repair; and afterwards the
// rotten replica is byte-identical to its peer again — same container
// bytes, same manifest version (created_at/generation/content_hash) — and a
// shard scrub comes back clean.
func TestChaosCorruptReplicaReadRepair(t *testing.T) {
	tc := newTestCluster(t, 3, 2)
	const name = "cl-heal"
	tc.put(t, name, "mode=abs&eb=0.01&chunk=512", fieldBytes(t, 1))

	code, want, _ := tc.get(t, name)
	if code != http.StatusOK {
		t.Fatalf("baseline read: status %d", code)
	}
	holders := tc.holders(t, name)
	if len(holders) != 2 {
		t.Fatalf("holders %v, want 2", holders)
	}
	// The primary is first in ring order, so the router reads it first —
	// corrupting it forces the failover + repair path on the very next read.
	primary := tc.rt.ring.sequence(name)[0]
	victim := tc.shards[primary]
	goodRaw := victim.raw(t, name)
	goodInfo, _ := victim.has(t, name)

	corruptShardContainer(t, victim, name)
	// Sanity: the victim's own verify now fails; the rot is real.
	if err := victim.st.VerifyDataset(name, false); err == nil {
		t.Fatal("victim still verifies after corruption")
	}

	// Zero failed reads: every read through the router during and after the
	// repair returns the exact baseline bytes.
	failedOver := 0
	for i := 0; i < 10; i++ {
		c, got, hdr := tc.get(t, name)
		if c != http.StatusOK {
			t.Fatalf("read %d with one corrupt replica: status %d", i, c)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("read %d returned wrong bytes", i)
		}
		if hdr.Get("X-RQM-Failover") != "" {
			failedOver++
		}
	}
	if failedOver == 0 {
		t.Fatal("no read failed over — the corrupt primary was never tried?")
	}

	// The repair is asynchronous: wait for the counter and the healed bytes.
	// The counter moves once the sync has committed, so the bytes and the
	// version the assertions below read are final by then.
	faultfs.WaitFor(t, 10*time.Second, func() error { return repaired(tc, victim, name) })

	// Byte-identical replication restored, version untouched.
	if !bytes.Equal(victim.raw(t, name), goodRaw) {
		t.Fatal("repaired container differs from the original bytes")
	}
	healedInfo, ok := victim.has(t, name)
	if !ok {
		t.Fatal("dataset missing from repaired shard")
	}
	if !healedInfo.CreatedAt.Equal(goodInfo.CreatedAt) || healedInfo.Generation != goodInfo.Generation ||
		healedInfo.ContentHash != goodInfo.ContentHash {
		t.Fatalf("repair changed the manifest version: %+v -> %+v", goodInfo, healedInfo)
	}
	for _, h := range holders {
		if !bytes.Equal(tc.shards[h].raw(t, name), goodRaw) {
			t.Fatalf("replica on shard %d diverged after repair", h)
		}
	}

	// A follow-up scrub on the healed shard finds nothing to complain about.
	st := shardScrub(t, victim)
	if st.State != "done" || st.Report == nil || len(st.Report.Issues) != 0 {
		t.Fatalf("post-repair scrub: %+v", st)
	}

	m := tc.rt.Snapshot()
	if m.ReadRepairs < 1 {
		t.Fatalf("read_repairs = %d, want >= 1", m.ReadRepairs)
	}
	if m.ReadRepairFailures != 0 {
		t.Fatalf("read_repair_failures = %d", m.ReadRepairFailures)
	}
}

// TestChaosForgedChunkReadRepair: one replica's second chunk is forged on
// disk to pass its CRC but not decode. Shallow verification passes it, so
// only the GET's decode finds it: the shard answers 422 corrupt_dataset
// before its status line, the router fails over to the healthy replica
// with the right bytes, and read-repair replaces the forged copy.
func TestChaosForgedChunkReadRepair(t *testing.T) {
	tc := newTestCluster(t, 3, 2)
	const name = "cl-forged"
	tc.put(t, name, "mode=abs&eb=0.01&chunk=512", fieldBytes(t, 8))
	code, want, _ := tc.get(t, name)
	if code != http.StatusOK {
		t.Fatalf("baseline read: status %d", code)
	}
	victim := tc.shards[tc.rt.ring.sequence(name)[0]] // read first
	goodRaw := victim.raw(t, name)
	m, err := victim.st.Manifest(name)
	if err != nil {
		t.Fatal(err)
	}
	p, err := victim.st.ContainerPath(name)
	if err != nil {
		t.Fatal(err)
	}
	if err := faultfs.ForgeChunk(p, m.Chunks[1].Offset); err != nil {
		t.Fatal(err)
	}
	if err := victim.st.VerifyDataset(name, false); err != nil {
		t.Fatalf("the forged chunk fails shallow verification: %v", err)
	}

	c, got, hdr := tc.get(t, name)
	if c != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("read with a forged replica: status %d, right bytes %v", c, bytes.Equal(got, want))
	}
	if hdr.Get("X-RQM-Failover") == "" {
		t.Fatal("the read did not fail over from the forged replica")
	}
	faultfs.WaitFor(t, 10*time.Second, func() error {
		if !bytes.Equal(victim.raw(t, name), goodRaw) {
			return fmt.Errorf("read-repair did not replace the forged copy: %+v", tc.rt.Snapshot())
		}
		return victim.st.VerifyDataset(name, true)
	})
	if err := victim.st.VerifyDataset(name, true); err != nil {
		t.Fatalf("repaired replica: %v", err)
	}
}

// TestChaosMissingProfileSamplesReadRepair: a replica whose profile samples
// sidecar is gone fails its GET's verify-before-serve with 422
// corrupt_dataset, so the router fails over, and read-repair re-syncs the
// replica from its peer, sidecar included.
func TestChaosMissingProfileSamplesReadRepair(t *testing.T) {
	tc := newTestCluster(t, 3, 2)
	const name = "cl-samples"
	tc.put(t, name, "mode=abs&eb=0.01&chunk=512", fieldBytes(t, 3))
	_, want, _ := tc.get(t, name)
	victim := tc.shards[tc.rt.ring.sequence(name)[0]]
	goodInfo, _ := victim.has(t, name)
	if err := os.Remove(filepath.Join(victim.st.Dir(), "datasets", name, store.ProfileFile)); err != nil {
		t.Fatal(err)
	}

	code, got, hdr := tc.get(t, name)
	if code != http.StatusOK || !bytes.Equal(got, want) || hdr.Get("X-RQM-Failover") == "" {
		t.Fatalf("read with one replica's samples missing: status %d, failover %q", code, hdr.Get("X-RQM-Failover"))
	}
	// The router counts a read-repair after its sync commits, so the files
	// verify before the counter moves: wait for both.
	faultfs.WaitFor(t, 10*time.Second, func() error { return repaired(tc, victim, name) })
	healedInfo, _ := victim.has(t, name)
	if !healedInfo.CreatedAt.Equal(goodInfo.CreatedAt) || healedInfo.Generation != goodInfo.Generation {
		t.Fatalf("repair changed the manifest version: %+v -> %+v", goodInfo, healedInfo)
	}
	if m := tc.rt.Snapshot(); m.ReadRepairs < 1 || m.ReadRepairFailures != 0 {
		t.Fatalf("read_repairs %d, failures %d", m.ReadRepairs, m.ReadRepairFailures)
	}
}

// TestChaosEveryReplicaCorrupt: with BOTH replicas rotten there is nothing
// to fail over to — the router must answer the typed corrupt_dataset
// verdict (not a 404: corrupt copies prove the dataset exists, and not a
// generic 502: retrying cannot help).
func TestChaosEveryReplicaCorrupt(t *testing.T) {
	tc := newTestCluster(t, 3, 2)
	const name = "cl-doom"
	tc.put(t, name, "mode=abs&eb=0.01&chunk=512", fieldBytes(t, 2))
	for _, h := range tc.holders(t, name) {
		corruptShardContainer(t, tc.shards[h], name)
	}

	resp, err := http.Get(tc.ts.URL + "/v1/datasets/" + name)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("all-corrupt read: status %d, want 422", resp.StatusCode)
	}
	if eb := decodeErr(t, resp); eb.Error.Code != "corrupt_dataset" {
		t.Fatalf("all-corrupt read: code %q", eb.Error.Code)
	}
	// No repair can be scheduled — there was no good copy to serve.
	if m := tc.rt.Snapshot(); m.ReadRepairs != 0 {
		t.Fatalf("read_repairs = %d with zero healthy copies", m.ReadRepairs)
	}
}

// TestChaosHungShardFailsOver is the shard-timeout regression: a shard that
// accepts the connection and then sits silent (hung store read holds the
// handler before headers are written) must not stall the proxied read past
// the shard timeout — the router fails over and serves from the healthy
// replica.
func TestChaosHungShardFailsOver(t *testing.T) {
	const shardTimeout = 250 * time.Millisecond
	shards := []*testShard{newShard(t), newShard(t), newShard(t)}
	urls := make([]string, len(shards))
	for i, s := range shards {
		urls[i] = s.ts.URL
	}
	rt, err := New(Config{Shards: urls, Replicas: 2, ProbeInterval: -1, FailAfter: 1,
		ShardTimeout: shardTimeout})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	ts := httptest.NewServer(rt)
	t.Cleanup(ts.Close)
	tc := &testCluster{shards: shards, rt: rt, ts: ts}

	const name = "cl-hang"
	tc.put(t, name, "mode=abs&eb=0.01&chunk=512", fieldBytes(t, 3))
	code, want, _ := tc.get(t, name)
	if code != http.StatusOK {
		t.Fatalf("baseline read: status %d", code)
	}

	// Hang the primary's store reads: its GET handler blocks before any
	// response header is committed — exactly the silence the shard timeout
	// exists to bound.
	primary := rt.ring.sequence(name)[0]
	ffs := faultfs.New()
	fault := faultfs.NewFault()
	fault.Hang = true
	ffs.Set(name+"/data.rqz", fault)
	shards[primary].st.SetReadFS(ffs)
	t.Cleanup(ffs.Reset) // unblock the parked handler goroutine at teardown

	start := time.Now()
	c, got, _ := tc.get(t, name)
	elapsed := time.Since(start)
	if c != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("read with hung primary: status %d, %d bytes", c, len(got))
	}
	if elapsed < shardTimeout {
		t.Fatalf("read returned in %v — the hung primary was never tried (timeout %v)", elapsed, shardTimeout)
	}
	if elapsed > 10*shardTimeout {
		t.Fatalf("read stalled %v behind a hung shard (timeout %v)", elapsed, shardTimeout)
	}
	if _, hung, _ := ffs.Stats(); hung == 0 {
		t.Fatal("the hang fault never engaged")
	}
	m := rt.Snapshot()
	if m.Failovers < 1 {
		t.Fatalf("failovers = %d, want >= 1", m.Failovers)
	}
	// The timeout marked the hung shard down: the next read skips it
	// entirely and is fast.
	start = time.Now()
	c, got, _ = tc.get(t, name)
	if c != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("second read: status %d", c)
	}
	if e := time.Since(start); e > shardTimeout {
		t.Fatalf("second read took %v — hung shard not marked down", e)
	}
}

// TestChaosRebalanceRefusesCorruptSource: a rebalance whose only live copy
// of a dataset is rotten must fail that dataset's sync (the source verifies
// before it serves the frame), never propagate the damaged bytes to a new
// replica.
func TestChaosRebalanceRefusesCorruptSource(t *testing.T) {
	tc := newTestCluster(t, 3, 2)
	const name = "cl-rbv"
	tc.put(t, name, "mode=abs&eb=0.01&chunk=512", fieldBytes(t, 4))
	holders := tc.holders(t, name)
	if len(holders) != 2 {
		t.Fatalf("holders %v", holders)
	}
	// Identify the non-holder before the topology changes.
	outsider := -1
	for i := range tc.shards {
		if i != holders[0] && i != holders[1] {
			outsider = i
		}
	}

	// Kill one holder; rot the survivor. The rebalance now wants to restore
	// R=2 by copying the only live copy — which fails verification.
	tc.shards[holders[1]].kill()
	corruptShardContainer(t, tc.shards[holders[0]], name)

	rep, err := tc.rt.Rebalance(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed == 0 {
		t.Fatalf("rebalance from a corrupt source reported no failures: %+v", rep)
	}
	if rep.Copied != 0 {
		t.Fatalf("rebalance copied %d datasets from a corrupt source", rep.Copied)
	}
	// The rot stayed put: the outsider shard received nothing.
	if _, ok := tc.shards[outsider].has(t, name); ok {
		t.Fatal("corrupt container propagated to a new replica")
	}
	if m := tc.rt.Snapshot(); m.ReplicaSyncFailures == 0 {
		t.Fatal("replica_sync_failures not counted")
	}
}

// TestShardTimeoutConfig pins the Config plumbing: zero defaults to 30s, a
// supplied Client suppresses the router-built transport.
func TestShardTimeoutConfig(t *testing.T) {
	rt, err := New(Config{Shards: []string{"http://localhost:1"}, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if rt.cfg.ShardTimeout != defaultShardTimeout {
		t.Fatalf("default ShardTimeout = %v", rt.cfg.ShardTimeout)
	}
	if rt.ownTransport == nil || rt.ownTransport.ResponseHeaderTimeout != defaultShardTimeout {
		t.Fatalf("router-built transport missing the header timeout: %+v", rt.ownTransport)
	}

	hc := &http.Client{}
	rt2, err := New(Config{Shards: []string{"http://localhost:1"}, ProbeInterval: -1,
		ShardTimeout: time.Second, Client: hc})
	if err != nil {
		t.Fatal(err)
	}
	defer rt2.Close()
	if rt2.hc != hc || rt2.ownTransport != nil {
		t.Fatal("supplied Client must be used verbatim, with no router-built transport")
	}

	rt3, err := New(Config{Shards: []string{"http://localhost:1"}, ProbeInterval: -1,
		ShardTimeout: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt3.Close()
	if rt3.ownTransport.ResponseHeaderTimeout != 0 {
		t.Fatal("negative ShardTimeout must disable the header timeout")
	}
}
