package service

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rqm/internal/store"
)

// The cluster tier (internal/router) rides four shard-side hooks: the
// liveness/readiness healthz split, the consistent metrics snapshot, the
// ?if-generation CAS put, and the raw replication endpoint. These tests pin
// each hook at the shard boundary, independent of any router.

func getJSON(t *testing.T, url string, v interface{}) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: decoding: %v", url, err)
	}
	return resp
}

func TestHealthzReadinessAndLiveness(t *testing.T) {
	svc, ts := newTestServer(t, Config{})

	var hr HealthResponse
	if resp := getJSON(t, ts.URL+"/healthz", &hr); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d", resp.StatusCode)
	}
	if hr.Status != "ok" || hr.Store || hr.Datasets != 0 {
		t.Fatalf("healthz without store: %+v", hr)
	}

	// Draining flips readiness to 503 while ?live=1 stays 200: a router
	// stops routing here, but the process is still alive for its drain.
	svc.BeginDrain()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var dr HealthResponse
	if jerr := json.NewDecoder(resp.Body).Decode(&dr); jerr != nil {
		t.Fatal(jerr)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || dr.Status != "draining" {
		t.Fatalf("draining healthz: status %d body %+v", resp.StatusCode, dr)
	}
	var lr HealthResponse
	if lresp := getJSON(t, ts.URL+"/healthz?live=1", &lr); lresp.StatusCode != http.StatusOK {
		t.Fatalf("liveness while draining: status %d", lresp.StatusCode)
	}
}

func TestHealthzReportsStore(t *testing.T) {
	_, _, ts := newStoreServer(t)
	_, body := testField(t)
	putDataset(t, ts, "hz", "mode=abs&eb=0.01", body)

	var hr HealthResponse
	getJSON(t, ts.URL+"/healthz", &hr)
	if !hr.Store || hr.Datasets != 1 {
		t.Fatalf("healthz with store: %+v", hr)
	}
}

func TestMetricsContentTypeAndShape(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("/metrics Content-Type = %q, want application/json", ct)
	}
	var m MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("/metrics is not valid JSON: %v", err)
	}
	if m.Requests < 1 {
		t.Fatalf("metrics requests = %d", m.Requests)
	}
}

func TestConditionalPutCAS(t *testing.T) {
	_, _, ts := newStoreServer(t)
	_, body := testField(t)
	first := putDataset(t, ts, "cas", "mode=abs&eb=0.01", body)

	// Wrong generation: typed 409, nothing written.
	resp, err := http.Post(ts.URL+"/v1/datasets/cas?mode=abs&eb=0.01&if-generation=5",
		"application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("stale if-generation: status %d, want 409", resp.StatusCode)
	}
	if eb := decodeErrorBody(t, resp); eb.Error.Code != "conflict" {
		t.Fatalf("stale if-generation: code %q", eb.Error.Code)
	}
	resp.Body.Close()

	// Missing dataset: also a conflict, not a 404 — the caller asserted a
	// version that does not exist.
	resp2, err := http.Post(ts.URL+"/v1/datasets/nope?mode=abs&eb=0.01&if-generation=0",
		"application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp2.StatusCode != http.StatusConflict {
		t.Fatalf("if-generation on absent dataset: status %d, want 409", resp2.StatusCode)
	}
	resp2.Body.Close()

	// Matching generation: the put lands, keeps the dataset's identity
	// (created_at) and bumps the generation — the same version math
	// recompaction uses.
	second := putDataset(t, ts, "cas", "mode=abs&eb=0.01&if-generation=0", body)
	if second.Generation != first.Generation+1 || !second.CreatedAt.Equal(first.CreatedAt) {
		t.Fatalf("CAS put version: %+v -> %+v", first, second)
	}
}

// rawFrame builds the raw-put body: 4-byte big-endian manifest length,
// manifest JSON, container bytes.
func rawFrame(man, container []byte) []byte {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(man)))
	return append(append(hdr[:], man...), container...)
}

// fetchReplicaParts pulls the full manifest and raw container for name —
// the pieces a raw-put frame is built from, as routers from before GET /raw
// fetched them.
func fetchReplicaParts(t *testing.T, ts *httptest.Server, name string) (man, container []byte) {
	t.Helper()
	mresp, err := http.Get(ts.URL + "/v1/datasets/" + name + "?manifest=1&full=1")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if man, err = io.ReadAll(mresp.Body); err != nil || mresp.StatusCode != http.StatusOK {
		t.Fatalf("full manifest: status %d err %v", mresp.StatusCode, err)
	}
	rresp, err := http.Get(ts.URL + "/v1/datasets/" + name + "?raw=1")
	if err != nil {
		t.Fatal(err)
	}
	defer rresp.Body.Close()
	if container, err = io.ReadAll(rresp.Body); err != nil || rresp.StatusCode != http.StatusOK {
		t.Fatalf("raw container: status %d err %v", rresp.StatusCode, err)
	}
	return man, container
}

func TestDatasetRawPutReplication(t *testing.T) {
	_, _, src := newStoreServer(t)
	_, _, dst := newStoreServer(t)
	_, body := testField(t)
	orig := putDataset(t, src, "repl", "mode=rel&eb=1e-3&chunk=1024", body)
	man, container := fetchReplicaParts(t, src, "repl")

	// First raw put: stored verbatim, no compression on the target.
	resp, err := http.Post(dst.URL+"/v1/datasets/repl/raw", "application/octet-stream",
		bytes.NewReader(rawFrame(man, container)))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || resp.Header.Get("X-RQM-Raw-Put") != "stored" {
		t.Fatalf("raw put: status %d %q: %s", resp.StatusCode, resp.Header.Get("X-RQM-Raw-Put"), raw)
	}
	var got DatasetInfo
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if !got.CreatedAt.Equal(orig.CreatedAt) || got.Generation != orig.Generation ||
		got.ContentHash != orig.ContentHash || got.Ratio != orig.Ratio {
		t.Fatalf("replica manifest diverges: %+v vs %+v", got, orig)
	}
	_, dstContainer := fetchReplicaParts(t, dst, "repl")
	if !bytes.Equal(container, dstContainer) {
		t.Fatal("replica container bytes differ from source")
	}
	var m MetricsSnapshot
	getJSON(t, dst.URL+"/metrics", &m)
	if m.DatasetRawPuts != 1 {
		t.Fatalf("dataset_raw_puts = %d, want 1", m.DatasetRawPuts)
	}
	if m.Compresses != 0 {
		t.Fatalf("raw put ran %d compresses — replication must not recompress", m.Compresses)
	}

	// Same frame again: idempotent 200 skip, nothing rewritten.
	resp2, err := http.Post(dst.URL+"/v1/datasets/repl/raw", "application/octet-stream",
		bytes.NewReader(rawFrame(man, container)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK || resp2.Header.Get("X-RQM-Raw-Put") != "skipped" {
		t.Fatalf("repeat raw put: status %d %q", resp2.StatusCode, resp2.Header.Get("X-RQM-Raw-Put"))
	}

	// The target re-puts (a strictly newer identity); replaying the old
	// frame must now lose the version arbitration with a typed 409.
	putDataset(t, dst, "repl", "mode=abs&eb=0.01", body)
	resp3, err := http.Post(dst.URL+"/v1/datasets/repl/raw", "application/octet-stream",
		bytes.NewReader(rawFrame(man, container)))
	if err != nil {
		t.Fatal(err)
	}
	if resp3.StatusCode != http.StatusConflict {
		t.Fatalf("stale raw put: status %d, want 409", resp3.StatusCode)
	}
	if eb := decodeErrorBody(t, resp3); eb.Error.Code != "conflict" {
		t.Fatalf("stale raw put: code %q", eb.Error.Code)
	}
	resp3.Body.Close()
}

func TestDatasetRawPutRejectsBadFrames(t *testing.T) {
	_, st, ts := newStoreServer(t)
	_, body := testField(t)
	putDataset(t, ts, "frame", "mode=abs&eb=0.01", body)
	man, container := fetchReplicaParts(t, ts, "frame")
	head, err := os.ReadFile(filepath.Join(st.Dir(), "datasets", "frame", store.ManifestFile))
	if err != nil {
		t.Fatal(err)
	}

	for name, frame := range map[string][]byte{
		"truncated-length":   {0x00, 0x01},
		"zero-manifest":      rawFrame(nil, container),
		"manifest-not-json":  rawFrame([]byte("{nope"), container),
		"truncated-manifest": {0x00, 0x00, 0xff, 0xff, 'x'},
		// A raw-put manifest is outside input: names a later recompaction
		// would rebuild its engine from are validated at the door.
		"unknown-predictor": rawFrame(bytes.Replace(man, []byte(`"predictor":"lorenzo"`), []byte(`"predictor":"bogus"`), 1), container),
		"unknown-lossless":  rawFrame(bytes.Replace(man, []byte(`"lossless":"none"`), []byte(`"lossless":"bogus"`), 1), container),
		"unknown-mode":      rawFrame(bytes.Replace(man, []byte(`"mode":"abs"`), []byte(`"mode":"bogus"`), 1), container),
		// The frame carries the wire form; a stored head leaves its samples behind.
		"stored-head": rawFrame(head, container),
	} {
		resp, err := http.Post(ts.URL+"/v1/datasets/frame/raw", "application/octet-stream",
			bytes.NewReader(frame))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", name, resp.StatusCode)
		}
		if eb := decodeErrorBody(t, resp); eb.Error.Code != "bad_manifest" {
			t.Fatalf("%s: code %q, want bad_manifest", name, eb.Error.Code)
		}
		resp.Body.Close()
	}
	var ms MetricsSnapshot
	getJSON(t, ts.URL+"/metrics", &ms)
	if ms.StoreWrites != 1 || ms.DatasetRawPuts != 0 {
		t.Fatalf("rejected frames committed: store_writes %d, dataset_raw_puts %d", ms.StoreWrites, ms.DatasetRawPuts)
	}

	// Manifest naming a different dataset than the path: rejected before
	// any bytes land.
	resp, err := http.Post(ts.URL+"/v1/datasets/other/raw", "application/octet-stream",
		bytes.NewReader(rawFrame(man, container)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("name mismatch: status %d, want 400", resp.StatusCode)
	}
}

// TestDatasetRawPutIntegrity: the target re-derives the chunk index from
// the container trailer, so a frame whose container bytes are corrupt is
// refused rather than committed.
func TestDatasetRawPutIntegrity(t *testing.T) {
	_, _, src := newStoreServer(t)
	_, _, dst := newStoreServer(t)
	_, body := testField(t)
	putDataset(t, src, "corrupt", "mode=abs&eb=0.01", body)
	man, container := fetchReplicaParts(t, src, "corrupt")

	bad := append([]byte(nil), container...)
	bad[len(bad)/2] ^= 0xff
	for i := len(bad) - 16; i < len(bad); i++ {
		bad[i] ^= 0xa5 // trash the trailer too
	}
	resp, err := http.Post(dst.URL+"/v1/datasets/corrupt/raw", "application/octet-stream",
		bytes.NewReader(rawFrame(man, bad)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 == 2 {
		t.Fatalf("corrupt container admitted: status %d", resp.StatusCode)
	}
	if _, err := http.Get(dst.URL + "/v1/datasets/corrupt?manifest=1"); err != nil {
		t.Fatal(err)
	}
	stat, err := http.Get(dst.URL + "/v1/datasets/corrupt?manifest=1")
	if err != nil {
		t.Fatal(err)
	}
	defer stat.Body.Close()
	if stat.StatusCode != http.StatusNotFound {
		t.Fatalf("corrupt dataset committed: stat %d", stat.StatusCode)
	}
}
