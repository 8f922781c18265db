package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"rqm"
	"rqm/internal/core"
	"rqm/internal/grid"
	"rqm/internal/store"
)

// newStoreServer builds a service backed by a fresh on-disk store.
func newStoreServer(t testing.TB) (*Service, *store.Store, *httptest.Server) {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	svc, ts := newTestServer(t, Config{Store: st})
	return svc, st, ts
}

// putDataset admits body under name with the given query string, asserting
// success, and returns the response info.
func putDataset(t testing.TB, ts *httptest.Server, name, query string, body []byte) DatasetInfo {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/datasets/"+name+"?"+query, "application/octet-stream",
		bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("put %s: status %d: %s", name, resp.StatusCode, raw)
	}
	var info DatasetInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	return info
}

func TestDatasetLifecycle(t *testing.T) {
	_, st, ts := newStoreServer(t)
	f, body := testField(t)

	info := putDataset(t, ts, "nyx", "mode=rel&eb=1e-3&chunk=1024", body)
	if info.Name != "nyx" || info.TotalValues != int64(f.Len()) || info.Generation != 0 {
		t.Fatalf("put info %+v", info)
	}
	if info.Ratio <= 1 || !info.Profiled || info.ContentHash == "" {
		t.Fatalf("put info missing substance: %+v", info)
	}
	if st.Writes() != 1 {
		t.Fatalf("store writes %d after put, want 1", st.Writes())
	}

	// List and stat agree.
	resp, err := http.Get(ts.URL + "/v1/datasets")
	if err != nil {
		t.Fatal(err)
	}
	var lr ListDatasetsResponse
	if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(lr.Datasets) != 1 || lr.Datasets[0].Name != "nyx" {
		t.Fatalf("list %+v", lr)
	}
	resp, err = http.Get(ts.URL + "/v1/datasets/nyx?manifest=1")
	if err != nil {
		t.Fatal(err)
	}
	var stat DatasetInfo
	if err := json.NewDecoder(resp.Body).Decode(&stat); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stat.ContentHash != info.ContentHash || stat.Chunks != info.Chunks {
		t.Fatalf("stat %+v differs from put %+v", stat, info)
	}

	// GET returns the decompressed field within the stored bound.
	resp, err = http.Get(ts.URL + "/v1/datasets/nyx")
	if err != nil {
		t.Fatal(err)
	}
	back, err := grid.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := rqm.VerifyErrorBound(f, back, rqm.REL, 1e-3*(1+1e-12)); err != nil {
		t.Fatal(err)
	}

	// GET ?raw=1 returns the container verbatim, self-decodable.
	resp, err = http.Get(ts.URL + "/v1/datasets/nyx?raw=1")
	if err != nil {
		t.Fatal(err)
	}
	blob, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(blob)) != info.ContainerBytes {
		t.Fatalf("raw container %d bytes, manifest says %d", len(blob), info.ContainerBytes)
	}
	if _, err := rqm.Decompress(blob); err != nil {
		t.Fatalf("raw container does not decode: %v", err)
	}

	// DELETE removes it; a second GET is a typed 404.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/datasets/nyx", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete status %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/datasets/nyx")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("get after delete: status %d", resp.StatusCode)
	}
	if body := decodeErrorBody(t, resp); body.Error.Code != "dataset_not_found" {
		t.Fatalf("get after delete: code %q", body.Error.Code)
	}
}

// TestDatasetSlice pins the acceptance contract: a slice read decompresses
// only the covered chunks and returns bytes identical to the same range of
// a full decompress.
func TestDatasetSlice(t *testing.T) {
	svc, st, ts := newStoreServer(t)
	_, body := testField(t)
	info := putDataset(t, ts, "sl", "mode=abs&eb=1e-4&chunk=512", body)
	if info.Chunks < 4 {
		t.Fatalf("test needs several chunks, got %d", info.Chunks)
	}

	// Full decompress for ground truth.
	resp, err := http.Get(ts.URL + "/v1/datasets/sl")
	if err != nil {
		t.Fatal(err)
	}
	full, err := grid.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}

	const off, n = 700, 500 // covers chunks 1 and 2 of 512 values each
	before := st.ChunkReads()
	resp, err = http.Get(fmt.Sprintf("%s/v1/datasets/sl/slice?off=%d&len=%d", ts.URL, off, n))
	if err != nil {
		t.Fatal(err)
	}
	slice, err := grid.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got := st.ChunkReads() - before; got != 2 {
		t.Errorf("slice decompressed %d chunks, want 2 (of %d total)", got, info.Chunks)
	}
	if slice.Len() != n {
		t.Fatalf("slice holds %d values, want %d", slice.Len(), n)
	}
	for i := 0; i < n; i++ {
		if slice.Data[i] != full.Data[off+i] {
			t.Fatalf("slice[%d] = %v, full decompress has %v", i, slice.Data[i], full.Data[off+i])
		}
	}
	if svc.Snapshot().SliceReads != 1 {
		t.Errorf("slice_reads metric %d, want 1", svc.Snapshot().SliceReads)
	}

	// Out-of-range is a typed 400.
	resp, err = http.Get(ts.URL + "/v1/datasets/sl/slice?off=999999&len=10")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("out-of-range slice: status %d", resp.StatusCode)
	}
	if body := decodeErrorBody(t, resp); body.Error.Code != "bad_range" {
		t.Fatalf("out-of-range slice: code %q", body.Error.Code)
	}
}

// postRecompact issues one recompaction request and decodes the report.
func postRecompact(t testing.TB, ts *httptest.Server, name, query string) (RecompactResponse, int) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/datasets/"+name+"/recompact?"+query, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rr RecompactResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
			t.Fatal(err)
		}
	}
	return rr, resp.StatusCode
}

// TestRecompactSkipsWhenModelSaysMet pins the zero-rewrite contract: a
// target the cached model says is already achieved must not touch the
// container.
func TestRecompactSkipsWhenModelSaysMet(t *testing.T) {
	svc, st, ts := newStoreServer(t)
	_, body := testField(t)
	info := putDataset(t, ts, "d", "mode=rel&eb=1e-3", body)
	if info.Ratio <= 2 {
		t.Fatalf("test wants a ratio comfortably above 2, got %.2f", info.Ratio)
	}

	writesBefore := st.Writes()
	rr, status := postRecompact(t, ts, "d", fmt.Sprintf("target-ratio=%g", info.Ratio/2))
	if status != http.StatusOK || !rr.Skipped {
		t.Fatalf("recompact to met target: status %d, %+v", status, rr)
	}
	if got := st.Writes() - writesBefore; got != 0 {
		t.Fatalf("met-target recompact performed %d container writes, want 0", got)
	}
	if rr.NewBound != rr.OldBound || rr.Generation != 0 {
		t.Fatalf("skipped recompact changed state: %+v", rr)
	}
	if snap := svc.Snapshot(); snap.RecompactionsSkipped != 1 || snap.Recompactions != 0 {
		t.Fatalf("metrics %+v", snap)
	}
}

func TestRecompactRewritesToTargetRatio(t *testing.T) {
	svc, st, ts := newStoreServer(t)
	f, body := testField(t)
	info := putDataset(t, ts, "d", "mode=abs&eb=1e-6", body)

	target := info.Ratio * 2
	writesBefore := st.Writes()
	rr, status := postRecompact(t, ts, "d", fmt.Sprintf("target-ratio=%g", target))
	if status != http.StatusOK {
		t.Fatalf("recompact status %d", status)
	}
	if rr.Skipped {
		t.Fatalf("recompact skipped: %+v", rr)
	}
	if got := st.Writes() - writesBefore; got != 1 {
		t.Fatalf("recompact performed %d container writes, want 1", got)
	}
	if rr.NewBound <= rr.OldBound || rr.NewRatio <= rr.OldRatio || rr.Generation != 1 {
		t.Fatalf("recompact report %+v", rr)
	}

	// The rewritten dataset still decodes, within the new (looser) bound.
	resp, err := http.Get(ts.URL + "/v1/datasets/d")
	if err != nil {
		t.Fatal(err)
	}
	back, err := grid.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	// Recompaction decompresses the gen-0 reconstruction (bounded by the old
	// bound) and recompresses it at the new bound: the end-to-end error vs
	// the original is at most the sum of both bounds.
	if err := rqm.VerifyErrorBound(f, back, rqm.ABS, (rr.OldBound+rr.NewBound)*(1+1e-12)); err != nil {
		t.Fatal(err)
	}
	stat, err := st.Manifest("d")
	if err != nil {
		t.Fatal(err)
	}
	if stat.Generation != 1 || stat.Mode != "abs" || stat.ErrorBound != rr.NewBound {
		t.Fatalf("rewritten manifest %+v", stat)
	}
	if stat.Profile == nil {
		t.Fatal("rewrite dropped the cached profile")
	}
	if snap := svc.Snapshot(); snap.Recompactions != 1 {
		t.Fatalf("recompactions metric %d, want 1", snap.Recompactions)
	}

	// A PSNR target the (now loose) archive cannot reach is a typed skip,
	// not a silent quality lie.
	writesBefore = st.Writes()
	rr2, status := postRecompact(t, ts, "d", "target-psnr=200")
	if status != http.StatusOK || !rr2.Skipped {
		t.Fatalf("impossible psnr recompact: status %d, %+v", status, rr2)
	}
	if st.Writes() != writesBefore {
		t.Fatal("impossible psnr recompact rewrote the container")
	}

	// Exactly one target, and a positive one: anything else is a 400 before
	// the dataset is touched.
	for _, query := range []string{"", "target-ratio=5&target-psnr=60", "target-ratio=5&target-psnr=0", "target-psnr=0"} {
		resp, err := http.Post(ts.URL+"/v1/datasets/d/recompact?"+query, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		if eb := decodeErrorBody(t, resp); resp.StatusCode != http.StatusBadRequest || eb.Error.Code != "bad_param" {
			t.Fatalf("recompact %q: status %d code %q, want 400 bad_param", query, resp.StatusCode, eb.Error.Code)
		}
		resp.Body.Close()
	}
	if st.Writes() != writesBefore {
		t.Fatal("a rejected recompact rewrote the container")
	}
}

// TestDatasetProfileSurvivesManifest: whatever codec and lossless stage a put
// runs, it is stored, the profile its manifest carries models that pipeline —
// entropy stage and lossless stage included — and a recompaction solves on it.
func TestDatasetProfileSurvivesManifest(t *testing.T) {
	_, st, ts := newStoreServer(t)
	_, body := testField(t)
	for _, codecName := range rqm.CodecNames() {
		for _, lossless := range []string{"none", "rle"} {
			name := codecName + "-" + lossless
			info := putDataset(t, ts, name, "mode=rel&eb=1e-4&codec="+codecName+"&lossless="+lossless, body)
			head, err := st.Manifest(name)
			if err != nil {
				t.Fatal(err)
			}
			m, err := st.FullManifest(head)
			if err != nil {
				t.Fatal(err)
			}
			p, err := m.RQProfile()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want := rqm.ModelOptions{SampleRate: 0.01,
				UseLossless: lossless == "rle" && codecName != rqm.CodecTransformName}
			if codecName == rqm.CodecPredictionTANSName {
				want.Entropy = core.EntropyModelANS
			}
			if got := p.Options(); got != want {
				t.Fatalf("%s: reloaded profile models %+v, the put ran %+v", name, got, want)
			}
			if _, status := postRecompact(t, ts, name, fmt.Sprintf("target-ratio=%g", 2*info.Ratio)); status != http.StatusOK {
				t.Fatalf("%s: recompact status %d", name, status)
			}
		}
	}
}

func TestDatasetEndpointsWithoutStore(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	_, body := testField(t)
	for _, tc := range []struct{ method, path string }{
		{http.MethodGet, "/v1/datasets"},
		{http.MethodPost, "/v1/datasets/x"},
		{http.MethodGet, "/v1/datasets/x"},
		{http.MethodDelete, "/v1/datasets/x"},
		{http.MethodGet, "/v1/datasets/x/slice?off=0&len=1"},
		{http.MethodPost, "/v1/datasets/x/recompact?target-ratio=2"},
	} {
		req, _ := http.NewRequest(tc.method, ts.URL+tc.path, bytes.NewReader(body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusNotImplemented {
			t.Fatalf("%s %s without store: status %d, want 501", tc.method, tc.path, resp.StatusCode)
		}
		if body := decodeErrorBody(t, resp); body.Error.Code != "store_disabled" {
			t.Fatalf("%s %s without store: code %q", tc.method, tc.path, body.Error.Code)
		}
		resp.Body.Close()
	}
}

func TestDatasetPutRejections(t *testing.T) {
	_, _, ts := newStoreServer(t)
	_, body := testField(t)

	// PWREL has no single absolute bound per chunk to index.
	resp, err := http.Post(ts.URL+"/v1/datasets/x?mode=pwrel&eb=1e-3", "", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("pwrel put: status %d", resp.StatusCode)
	}
	resp.Body.Close()

	// An invalid name is rejected before any work happens.
	resp, err = http.Post(ts.URL+"/v1/datasets/a%20b", "", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad-name put: status %d", resp.StatusCode)
	}
	if eb := decodeErrorBody(t, resp); eb.Error.Code != "bad_name" {
		t.Fatalf("bad-name put: code %q", eb.Error.Code)
	}
	resp.Body.Close()

	// A non-field body is a typed 422.
	resp, err = http.Post(ts.URL+"/v1/datasets/x", "", bytes.NewReader([]byte("junk")))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("junk put: status %d", resp.StatusCode)
	}
	if eb := decodeErrorBody(t, resp); eb.Error.Code != "bad_field" {
		t.Fatalf("junk put: code %q", eb.Error.Code)
	}
}

// TestDatasetPutRefusesNonFinite: a field holding NaN or ±Inf has no finite
// value range for its stored profile, so its put is refused with a 422
// that names the non-finite values, in every mode, before any container
// byte is staged, and the dataset stays absent.
func TestDatasetPutRefusesNonFinite(t *testing.T) {
	_, st, ts := newStoreServer(t)
	g, err := rqm.GenerateField("nyx/temperature", 7, rqm.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		at   int
		v    float64
	}{{"nan-led", 0, math.NaN()}, {"inf", 1500, math.Inf(1)}} {
		data := append([]float64(nil), g.Data[:3000]...)
		data[tc.at] = tc.v
		f, err := rqm.FieldFromData(tc.name, rqm.Float64, data, len(data))
		if err != nil {
			t.Fatal(err)
		}
		var body bytes.Buffer
		if _, err := f.WriteTo(&body); err != nil {
			t.Fatal(err)
		}
		for _, mode := range []string{"abs", "rel"} {
			resp, err := http.Post(ts.URL+"/v1/datasets/"+tc.name+"?mode="+mode+"&eb=1e-3&chunk=1024",
				"application/octet-stream", bytes.NewReader(body.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			eb := decodeErrorBody(t, resp)
			resp.Body.Close()
			if resp.StatusCode != http.StatusUnprocessableEntity || eb.Error.Code != "non_finite_field" ||
				!strings.Contains(eb.Error.Message, "non-finite values") {
				t.Fatalf("%s %s put: status %d, %+v", tc.name, mode, resp.StatusCode, eb.Error)
			}
			if _, err := st.Manifest(tc.name); !errors.Is(err, store.ErrNotFound) {
				t.Fatalf("%s %s put: the dataset is there after the refusal (%v)", tc.name, mode, err)
			}
		}
	}
	if st.Writes() != 0 {
		t.Fatalf("store writes %d after refused puts, want 0", st.Writes())
	}
}
