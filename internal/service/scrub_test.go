package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"rqm/internal/codec"
	"rqm/internal/faultfs"
	"rqm/internal/store"
)

// corruptStoredContainer flips one byte inside the first chunk's payload of
// a committed dataset — persistent, shallow-detectable damage.
func corruptStoredContainer(t *testing.T, st *store.Store, name string) {
	t.Helper()
	m, err := st.Manifest(name)
	if err != nil {
		t.Fatal(err)
	}
	p, err := st.ContainerPath(name)
	if err != nil {
		t.Fatal(err)
	}
	if err := faultfs.CorruptFile(p, m.Chunks[0].Offset+22+5); err != nil {
		t.Fatal(err)
	}
}

// waitScrubDone polls /v1/scrub/status until the pass leaves "running".
func waitScrubDone(t *testing.T, ts *httptest.Server) ScrubStatusResponse {
	t.Helper()
	var stt ScrubStatusResponse
	faultfs.WaitFor(t, 10*time.Second, func() error {
		resp, err := http.Get(ts.URL + "/v1/scrub/status")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		stt = ScrubStatusResponse{}
		if err := json.NewDecoder(resp.Body).Decode(&stt); err != nil {
			t.Fatal(err)
		}
		if stt.State == "running" {
			return fmt.Errorf("scrub still running: %+v", stt)
		}
		return nil
	})
	return stt
}

func startScrub(t *testing.T, ts *httptest.Server, query string) *http.Response {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/scrub"+query, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestScrubEndpointLifecycle(t *testing.T) {
	_, _, ts := newStoreServer(t)
	_, body := testField(t)
	putDataset(t, ts, "scrub-ok", "mode=abs&eb=0.01&chunk=512", body)

	// Before any pass: idle, no report.
	resp, err := http.Get(ts.URL + "/v1/scrub/status")
	if err != nil {
		t.Fatal(err)
	}
	var idle ScrubStatusResponse
	if err := json.NewDecoder(resp.Body).Decode(&idle); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if idle.State != "idle" || idle.Report != nil {
		t.Fatalf("pre-scrub status %+v", idle)
	}

	// Start a deep pass: 202 with the job's status snapshot.
	sresp := startScrub(t, ts, "?deep=1")
	defer sresp.Body.Close()
	if sresp.StatusCode != http.StatusAccepted {
		t.Fatalf("scrub start: status %d", sresp.StatusCode)
	}

	done := waitScrubDone(t, ts)
	if done.State != "done" || done.Report == nil {
		t.Fatalf("finished status %+v", done)
	}
	if !done.Deep || !done.Report.Deep {
		t.Fatal("deep=1 did not run a deep pass")
	}
	if done.Report.Datasets != 1 || len(done.Report.Issues) != 0 {
		t.Fatalf("clean archive report %+v", done.Report)
	}
	if done.Scanned != done.Total || done.Total != 1 {
		t.Fatalf("progress %d/%d", done.Scanned, done.Total)
	}

	// The pass is visible in /metrics under the consistent snapshot.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var ms MetricsSnapshot
	if err := json.NewDecoder(mresp.Body).Decode(&ms); err != nil {
		t.Fatal(err)
	}
	if ms.ScrubRuns != 1 || ms.ChunksVerified == 0 || ms.DatasetsQuarantined != 0 {
		t.Fatalf("metrics %+v", ms)
	}
}

func TestScrubEndpointWithoutStore(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := startScrub(t, ts, "")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("scrub without store: status %d", resp.StatusCode)
	}
	if eb := decodeErrorBody(t, resp); eb.Error.Code != "store_disabled" {
		t.Fatalf("code %q", eb.Error.Code)
	}
}

func TestScrubEndpointQuarantinesAndReadsGo404(t *testing.T) {
	_, st, ts := newStoreServer(t)
	_, body := testField(t)
	putDataset(t, ts, "scrub-rot", "mode=abs&eb=0.01&chunk=512", body)
	corruptStoredContainer(t, st, "scrub-rot")

	resp := startScrub(t, ts, "")
	resp.Body.Close()
	done := waitScrubDone(t, ts)
	if done.State != "done" || done.Report == nil || done.Report.DatasetsQuarantined != 1 {
		t.Fatalf("scrub of rotten archive: %+v", done)
	}
	if len(done.Report.Issues) != 1 || !done.Report.Issues[0].Quarantined {
		t.Fatalf("issues %+v", done.Report.Issues)
	}

	// Quarantined: subsequent reads are a typed 404, not a 422.
	gresp, err := http.Get(ts.URL + "/v1/datasets/scrub-rot")
	if err != nil {
		t.Fatal(err)
	}
	defer gresp.Body.Close()
	if gresp.StatusCode != http.StatusNotFound {
		t.Fatalf("read after quarantine: status %d", gresp.StatusCode)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var ms MetricsSnapshot
	if err := json.NewDecoder(mresp.Body).Decode(&ms); err != nil {
		t.Fatal(err)
	}
	if ms.DatasetsQuarantined != 1 || ms.BytesQuarantined == 0 {
		t.Fatalf("metrics %+v", ms)
	}
}

// TestCorruptDatasetReadIs422 pins the verify-before-serve contract: a read
// that would stream garbage is refused with the typed corrupt_dataset error
// and a committed status code — never a mid-stream abort.
func TestCorruptDatasetReadIs422(t *testing.T) {
	_, st, ts := newStoreServer(t)
	_, body := testField(t)
	putDataset(t, ts, "read-rot", "mode=abs&eb=0.01&chunk=512", body)
	corruptStoredContainer(t, st, "read-rot")

	// Decompressing GET: typed 422.
	resp, err := http.Get(ts.URL + "/v1/datasets/read-rot")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("corrupt read: status %d, want 422", resp.StatusCode)
	}
	if eb := decodeErrorBody(t, resp); eb.Error.Code != "corrupt_dataset" {
		t.Fatalf("corrupt read: code %q", eb.Error.Code)
	}
	resp.Body.Close()

	// Raw GET stays verbatim (forensics must see the actual bytes) ...
	rresp, err := http.Get(ts.URL + "/v1/datasets/read-rot?raw=1")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, rresp.Body)
	rresp.Body.Close()
	if rresp.StatusCode != http.StatusOK {
		t.Fatalf("raw read of corrupt container: status %d, want verbatim 200", rresp.StatusCode)
	}

	// ... unless the caller asks for source verification (what rebalance
	// and read-repair do, so corruption cannot propagate between shards).
	vresp, err := http.Get(ts.URL + "/v1/datasets/read-rot?raw=1&verify=1")
	if err != nil {
		t.Fatal(err)
	}
	defer vresp.Body.Close()
	if vresp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("verified raw read: status %d, want 422", vresp.StatusCode)
	}
	if eb := decodeErrorBody(t, vresp); eb.Error.Code != "corrupt_dataset" {
		t.Fatalf("verified raw read: code %q", eb.Error.Code)
	}
}

// fetchRawFrame fetches name's full manifest and container from ts and
// builds the raw-put body frame (via the replication helpers the cluster
// hook tests share).
func fetchRawFrame(t *testing.T, ts *httptest.Server, name string) []byte {
	t.Helper()
	man, container := fetchReplicaParts(t, ts, name)
	return rawFrame(man, container)
}

func rawPut(t *testing.T, ts *httptest.Server, name, query string, frame []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/datasets/"+name+"/raw"+query, "application/octet-stream",
		bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestRawPutRepairSemantics pins the ?repair=1 arbitration: a same-version
// put is an idempotent 200 skip on a healthy target, but replaces the bytes
// (201, X-RQM-Raw-Put: repaired) when the committed copy fails verification
// — and only repair puts re-verify at all.
func TestRawPutRepairSemantics(t *testing.T) {
	_, st, ts := newStoreServer(t)
	_, body := testField(t)
	putDataset(t, ts, "heal", "mode=abs&eb=0.01&chunk=512", body)
	frame := fetchRawFrame(t, ts, "heal")
	goodInfo, err := st.Manifest("heal")
	if err != nil {
		t.Fatal(err)
	}

	// Healthy target: both plain and repair same-version puts skip.
	for _, q := range []string{"", "?repair=1"} {
		resp := rawPut(t, ts, "heal", q, frame)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-RQM-Raw-Put") != "skipped" {
			t.Fatalf("same-version put %q: status %d, disposition %q",
				q, resp.StatusCode, resp.Header.Get("X-RQM-Raw-Put"))
		}
	}

	// Rot the committed container. A plain same-version put still skips —
	// it has no reason to distrust the target.
	corruptStoredContainer(t, st, "heal")
	resp := rawPut(t, ts, "heal", "", frame)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plain put over rot: status %d", resp.StatusCode)
	}
	if err := st.VerifyDataset("heal", false); err == nil {
		t.Fatal("plain put unexpectedly healed the container")
	}

	// The repair put verifies, sees the rot, and replaces the bytes.
	resp = rawPut(t, ts, "heal", "?repair=1", frame)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || resp.Header.Get("X-RQM-Raw-Put") != "repaired" {
		t.Fatalf("repair put over rot: status %d, disposition %q",
			resp.StatusCode, resp.Header.Get("X-RQM-Raw-Put"))
	}
	if err := st.VerifyDataset("heal", true); err != nil {
		t.Fatalf("container not healed: %v", err)
	}
	healed, err := st.Manifest("heal")
	if err != nil {
		t.Fatal(err)
	}
	if !healed.CreatedAt.Equal(goodInfo.CreatedAt) || healed.Generation != goodInfo.Generation ||
		healed.ContentHash != goodInfo.ContentHash {
		t.Fatalf("repair changed the manifest version: %+v vs %+v", healed, goodInfo)
	}
}

// TestRawPutRepairOverTornManifest: a target whose manifest is torn has no
// trustworthy committed version; a repair put overwrites the wreck instead
// of erroring the way a read would.
func TestRawPutRepairOverTornManifest(t *testing.T) {
	_, st, ts := newStoreServer(t)
	_, body := testField(t)
	putDataset(t, ts, "torn-t", "mode=abs&eb=0.01&chunk=512", body)
	frame := fetchRawFrame(t, ts, "torn-t")

	// Tear the committed manifest in place.
	mpath := st.Dir() + "/datasets/torn-t/" + store.ManifestFile
	corruptManifest(t, mpath)

	// A plain put surfaces the target's corruption as the typed
	// manifest_corrupt error (500: this shard's stored state is broken —
	// the router treats the code as corrupt and fails over / repairs).
	resp := rawPut(t, ts, "torn-t", "", frame)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("plain put over torn manifest: status %d", resp.StatusCode)
	}
	if eb := decodeErrorBody(t, resp); eb.Error.Code != "manifest_corrupt" {
		t.Fatalf("plain put over torn manifest: code %q", eb.Error.Code)
	}
	resp.Body.Close()

	// The repair put bulldozes it.
	resp = rawPut(t, ts, "torn-t", "?repair=1", frame)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || resp.Header.Get("X-RQM-Raw-Put") != "repaired" {
		t.Fatalf("repair put over torn manifest: status %d, disposition %q",
			resp.StatusCode, resp.Header.Get("X-RQM-Raw-Put"))
	}
	if err := st.VerifyDataset("torn-t", true); err != nil {
		t.Fatalf("target not healed: %v", err)
	}
}

// TestRawPutRejectsInFlightCorruption: a frame whose container bytes do not
// hash to the manifest's ContainerHash is refused — a copy corrupted on the
// wire cannot be committed.
func TestRawPutRejectsInFlightCorruption(t *testing.T) {
	_, st, ts := newStoreServer(t)
	_, body := testField(t)
	putDataset(t, ts, "wire", "mode=abs&eb=0.01&chunk=512", body)
	frame := fetchRawFrame(t, ts, "wire")

	// Flip a container byte inside the frame (well past the manifest JSON),
	// and clear the slot so the put actually stages the stream.
	mangled := append([]byte(nil), frame...)
	mangled[len(mangled)-20] ^= 0xFF
	if err := st.Delete("wire"); err != nil {
		t.Fatal(err)
	}

	resp := rawPut(t, ts, "wire", "", mangled)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("raw put of mangled frame: status %d, want 422", resp.StatusCode)
	}
	// Nothing was committed.
	if _, err := st.Manifest("wire"); err == nil {
		t.Fatal("mangled frame was committed")
	}
	// The pristine frame goes through fine.
	resp2 := rawPut(t, ts, "wire", "", frame)
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusCreated {
		t.Fatalf("pristine frame after mangled attempt: status %d", resp2.StatusCode)
	}
	if err := st.VerifyDataset("wire", true); err != nil {
		t.Fatal(err)
	}
}

// TestRawPutRefusesLyingTrailer is probe (1) of ISSUE 24 from outside: a raw
// put whose container's trailer claims 2x the values its first record holds
// (manifest and container hash repeating the lie, every CRC valid) used to be
// committed, and the next slice read panicked the handler. It must answer the
// typed corruption envelope and commit nothing.
func TestRawPutRefusesLyingTrailer(t *testing.T) {
	_, st, ts := newStoreServer(t)
	_, body := testField(t)
	putDataset(t, ts, "liar", "mode=abs&eb=0.01&chunk=1024", body)
	man, container := fetchReplicaParts(t, ts, "liar")
	if err := st.Delete("liar"); err != nil {
		t.Fatal(err)
	}

	idx, err := codec.LoadIndex(bytes.NewReader(container))
	if err != nil {
		t.Fatal(err)
	}
	lie := slices.Clone(idx.Entries)
	lie[0].Values, lie[2].Values, lie[3].Values = 2*lie[0].Values, lie[2].Values/2, lie[3].Values/2
	last := lie[len(lie)-1]
	trailer := last.Offset + int64(last.RecordBytes)
	lying := bytes.NewBuffer(bytes.Clone(container[:trailer]))
	if _, err := codec.WriteTrailer(lying, lie, idx.TotalValues, trailer); err != nil {
		t.Fatal(err)
	}
	var m store.Manifest
	if err := json.Unmarshal(man, &m); err != nil {
		t.Fatal(err)
	}
	for i := range m.Chunks {
		m.Chunks[i].Values = lie[i].Values
	}
	sum := sha256.Sum256(lying.Bytes())
	m.ContainerHash = hex.EncodeToString(sum[:])
	if man, err = json.Marshal(&m); err != nil {
		t.Fatal(err)
	}

	resp := rawPut(t, ts, "liar", "", rawFrame(man, lying.Bytes()))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("raw put of a lying container: status %d, want 422", resp.StatusCode)
	}
	if eb := decodeErrorBody(t, resp); eb.Error.Code != "corrupt_dataset" {
		t.Fatalf("raw put of a lying container: code %q, want corrupt_dataset", eb.Error.Code)
	}
	if _, err := st.Manifest("liar"); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("lying container was committed: %v", err)
	}
}

// corruptManifest truncates a manifest file mid-JSON.
func corruptManifest(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestProfileSamplesCorruptionOverHTTP: a flipped byte in the profile
// samples sidecar leaves every request that does not ask the model
// answering — stat, slice, GET — while recompaction and the full manifest
// a replica would be sent answer 422 corrupt_dataset. A missing sidecar
// fails the GET's verify-before-serve the same way, so a router fails over.
func TestProfileSamplesCorruptionOverHTTP(t *testing.T) {
	_, st, ts := newStoreServer(t)
	_, body := testField(t)
	putDataset(t, ts, "srot", "mode=abs&eb=0.01&chunk=512", body)
	path := filepath.Join(st.Dir(), "datasets", "srot", store.ProfileFile)
	expect := func(when, method, path string, status int, code string) {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != status {
			t.Fatalf("%s: %s %s: status %d, want %d", when, method, path, resp.StatusCode, status)
		}
		if code != "" {
			if eb := decodeErrorBody(t, resp); eb.Error.Code != code {
				t.Fatalf("%s: %s %s: code %q, want %q", when, method, path, eb.Error.Code, code)
			}
		}
	}

	if err := faultfs.CorruptFile(path, 3); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"?manifest=1", "/slice?off=10&len=100", "", "?raw=1&verify=1"} {
		expect("flipped", http.MethodGet, "/v1/datasets/srot"+p, http.StatusOK, "")
	}
	expect("flipped", http.MethodGet, "/v1/datasets/srot?manifest=1&full=1", http.StatusUnprocessableEntity, "corrupt_dataset")
	expect("flipped", http.MethodPost, "/v1/datasets/srot/recompact?target-ratio=1000", http.StatusUnprocessableEntity, "corrupt_dataset")
	if err := faultfs.CorruptFile(path, 3); err != nil {
		t.Fatal(err)
	}

	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	expect("missing", http.MethodGet, "/v1/datasets/srot?manifest=1", http.StatusOK, "")
	expect("missing", http.MethodGet, "/v1/datasets/srot", http.StatusUnprocessableEntity, "corrupt_dataset")
	expect("missing", http.MethodGet, "/v1/datasets/srot?raw=1&verify=1", http.StatusUnprocessableEntity, "corrupt_dataset")
}

// TestStoreBytesGaugeMatchesDisk holds the stored-bytes gauge (Store.Bytes,
// /metrics store_bytes) to the sum of every file's size under datasets/ —
// profile samples sidecar and residual included — after each operation that
// writes or removes a dataset.
func TestStoreBytesGaugeMatchesDisk(t *testing.T) {
	_, st, ts := newStoreServer(t)
	_, dst, dts := newStoreServer(t)
	f, body := testField(t)
	var orig bytes.Buffer
	if _, err := f.WriteTo(&orig); err != nil {
		t.Fatal(err)
	}
	check := func(step string, s *store.Store, server *httptest.Server) {
		t.Helper()
		var disk int64
		err := filepath.WalkDir(filepath.Join(s.Dir(), "datasets"), func(_ string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() {
				var fi fs.FileInfo
				if fi, err = d.Info(); err == nil {
					disk += fi.Size()
				}
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		var m MetricsSnapshot
		getJSON(t, server.URL+"/metrics", &m)
		if total, _ := s.Bytes(); total != disk || m.StoreBytes != disk {
			t.Fatalf("after %s: gauge %d, /metrics %d, disk holds %d", step, total, m.StoreBytes, disk)
		}
	}

	putDataset(t, ts, "g", "mode=abs&eb=0.01&chunk=512", body)
	putDataset(t, ts, "h", "mode=abs&eb=0.01&chunk=512", body)
	check("put", st, ts)
	putDataset(t, ts, "g", "mode=abs&eb=0.02&chunk=512&if-generation=0", body)
	check("CAS replace", st, ts)
	if rr, status := postRecompact(t, ts, "g", "target-psnr=20"); status != http.StatusOK || rr.Skipped {
		t.Fatalf("recompact: status %d, %+v", status, rr)
	}
	check("recompact", st, ts)
	if status, _, _ := postInfo(t, ts, "/v1/datasets/g/promote", orig.Bytes()); status != http.StatusCreated {
		t.Fatalf("promote: status %d", status)
	}
	check("promote", st, ts)
	if status, _, _ := postInfo(t, ts, "/v1/datasets/g/demote", nil); status != http.StatusOK {
		t.Fatalf("demote: status %d", status)
	}
	check("demote", st, ts)

	frame := fetchRawFrame(t, ts, "g")
	rawPut(t, dts, "g", "", frame).Body.Close()
	corruptStoredContainer(t, dst, "g")
	resp := rawPut(t, dts, "g", "?repair=1", frame)
	resp.Body.Close()
	if resp.Header.Get("X-RQM-Raw-Put") != "repaired" {
		t.Fatalf("raw-put repair: status %d %q", resp.StatusCode, resp.Header.Get("X-RQM-Raw-Put"))
	}
	check("raw-put repair", dst, dts)

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/datasets/h", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: status %d", resp.StatusCode)
	}
	check("delete", st, ts)
	corruptStoredContainer(t, st, "g")
	if rep, err := st.Scrub(store.ScrubOptions{}); err != nil || rep.DatasetsQuarantined != 1 {
		t.Fatalf("scrub: %+v, %v", rep, err)
	}
	check("quarantine", st, ts)
}
