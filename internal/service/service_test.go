package service

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"

	"rqm"
	"rqm/internal/codec"
	"rqm/internal/compressor"
	"rqm/internal/grid"
)

// testField synthesizes the shared request payload. The field is rewrapped
// at float64 precision so the .rqmf response serialization is exact and
// error-bound assertions are not polluted by float32 rounding.
func testField(t testing.TB) (*rqm.Field, []byte) {
	t.Helper()
	g, err := rqm.GenerateField("nyx/temperature", 7, rqm.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	f, err := rqm.FieldFromData("svc-test", rqm.Float64, g.Data, g.Dims...)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return f, buf.Bytes()
}

// newTestServer builds a service and an httptest server around it.
func newTestServer(t testing.TB, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc)
	t.Cleanup(ts.Close)
	return svc, ts
}

// decodeErrorBody parses the JSON error envelope.
func decodeErrorBody(t *testing.T, resp *http.Response) ErrorBody {
	t.Helper()
	var body ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("error body is not the JSON envelope: %v", err)
	}
	if body.Error.Code == "" {
		t.Fatal("error envelope has an empty code")
	}
	return body
}

// TestCompressDecompressRoundTrip drives the whole-buffer HTTP path end to
// end: field in, container out, field back, bound verified.
func TestCompressDecompressRoundTrip(t *testing.T) {
	f, body := testField(t)
	_, ts := newTestServer(t, Config{})

	resp, err := http.Post(ts.URL+"/v1/compress?mode=abs&eb=0.01", "application/octet-stream",
		bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compress status %d", resp.StatusCode)
	}
	if resp.Header.Get("X-RQM-Codec") == "" || resp.Header.Get("X-RQM-Ratio") == "" {
		t.Fatalf("compress response misses stats headers: %v", resp.Header)
	}
	container, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	// The container is a normal sealed envelope, decodable offline too.
	if _, err := rqm.Decompress(container); err != nil {
		t.Fatalf("served container does not decode locally: %v", err)
	}

	resp, err = http.Post(ts.URL+"/v1/decompress", "application/octet-stream",
		bytes.NewReader(container))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("decompress status %d", resp.StatusCode)
	}
	fieldBytes, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	got, err := readFieldBody(bytes.NewReader(fieldBytes))
	if err != nil {
		t.Fatalf("decompress response is not a field: %v", err)
	}
	if got.Len() != f.Len() {
		t.Fatalf("round trip returned %d values, want %d", got.Len(), f.Len())
	}
	if err := rqm.VerifyErrorBound(f, got, rqm.ABS, 0.01*(1+1e-9)); err != nil {
		t.Fatalf("round trip broke the request-scoped bound: %v", err)
	}

	// A byte after the envelope's payload is refused, as rqm.Decompress
	// refuses it.
	resp, err = http.Post(ts.URL+"/v1/decompress", "application/octet-stream",
		bytes.NewReader(append(container, 0)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("envelope with a trailing byte: status %d, want 422", resp.StatusCode)
	}
	if eb := decodeErrorBody(t, resp); eb.Error.Code != "corrupt" {
		t.Fatalf("envelope with a trailing byte: code %q, want corrupt", eb.Error.Code)
	}
}

// TestOversizedEnvelopeRefusedUnread checks that an envelope declaring a
// payload larger than a streamed record may hold is refused from its head:
// the 4 KiB that follow are never read as payload, so the answer is corrupt,
// not the truncation reading them would end in.
func TestOversizedEnvelopeRefusedUnread(t *testing.T) {
	sealed, err := codec.Seal(codec.IDPrediction, grid.MustNew("big", grid.Float32, 1), []byte("p"))
	if err != nil {
		t.Fatal(err)
	}
	head := sealed[:len(sealed)-1]
	binary.LittleEndian.PutUint64(head[len(head)-8:], 1<<31+1) // the payload length ends the head
	body := append(bytes.Clone(head), make([]byte, 4<<10)...)

	_, ts := newTestServer(t, Config{})
	resp, err := http.Post(ts.URL+"/v1/decompress", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422", resp.StatusCode)
	}
	if eb := decodeErrorBody(t, resp); eb.Error.Code != "corrupt" {
		t.Fatalf("code %q, want corrupt", eb.Error.Code)
	}
}

// TestCompressStreamingREL checks the streaming path end to end, including
// the REL contract: without a declared value range the server refuses, with
// one it enforces the stream-global bound.
func TestCompressStreamingREL(t *testing.T) {
	f, body := testField(t)
	_, ts := newTestServer(t, Config{})

	// REL + streaming without a range: explicit 400, not a guessed bound.
	resp, err := http.Post(ts.URL+"/v1/compress?stream=1", "application/octet-stream",
		bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("streamed REL without range: status %d, want 400", resp.StatusCode)
	}
	if eb := decodeErrorBody(t, resp); eb.Error.Code != "rel_needs_value_range" {
		t.Fatalf("error code %q, want rel_needs_value_range", eb.Error.Code)
	}
	resp.Body.Close()

	// With the range declared the stream compresses and decompresses.
	lo, hi := f.ValueRange()
	q := url.Values{}
	q.Set("stream", "1")
	q.Set("chunk", "2048")
	q.Set("value-range", fmt.Sprintf("%g,%g", lo, hi))
	resp, err = http.Post(ts.URL+"/v1/compress?"+q.Encode(), "application/octet-stream",
		bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("streamed compress status %d", resp.StatusCode)
	}
	if resp.Header.Get("X-RQM-Streamed") != "1" {
		t.Fatal("streamed compress did not mark X-RQM-Streamed")
	}
	container, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !rqm.IsChunkedContainer(container) {
		t.Fatal("streamed compress did not produce a chunked container")
	}

	resp, err = http.Post(ts.URL+"/v1/decompress", "application/octet-stream",
		bytes.NewReader(container))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("streamed decompress status %d", resp.StatusCode)
	}
	fieldBytes, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	got, err := readFieldBody(bytes.NewReader(fieldBytes))
	if err != nil {
		t.Fatalf("streamed decompress response is not a field: %v", err)
	}
	// The enforced bound is the stream-global REL resolution.
	wantAbs := 1e-3 * (hi - lo)
	if err := rqm.VerifyErrorBound(f, got, rqm.ABS, wantAbs*(1+1e-9)); err != nil {
		t.Fatalf("streamed REL bound: %v", err)
	}
}

// TestProfileEstimateCacheHit is the tentpole's acceptance path: one
// sampling pass, then unlimited estimates and solves from cache — including
// a repeated profile POST, which must not sample again.
func TestProfileEstimateCacheHit(t *testing.T) {
	_, body := testField(t)
	svc, ts := newTestServer(t, Config{})

	post := func() ProfileResponse {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/profile", "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("profile status %d", resp.StatusCode)
		}
		var pr ProfileResponse
		if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
			t.Fatal(err)
		}
		return pr
	}

	first := post()
	if first.Cached || first.Profile == "" || len(first.Curve) != curvePoints {
		t.Fatalf("first profile: %+v", first)
	}
	second := post()
	if !second.Cached || second.Profile != first.Profile {
		t.Fatalf("second profile: cached=%v id=%q, want hit on %q", second.Cached, second.Profile, first.Profile)
	}
	if builds := svc.Snapshot().ProfileBuilds; builds != 1 {
		t.Fatalf("%d sampling passes after a repeated POST, want exactly 1", builds)
	}

	// Estimates are served from the cache: no further sampling passes.
	resp, err := http.Get(ts.URL + "/v1/estimate?profile=" + first.Profile + "&eb=1e-3")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("estimate status %d", resp.StatusCode)
	}
	var est EstimateResponse
	if err := json.NewDecoder(resp.Body).Decode(&est); err != nil {
		t.Fatal(err)
	}
	if !(est.Ratio > 1) || !(est.PSNR > 0) {
		t.Fatalf("estimate %+v is not a plausible model answer", est)
	}

	// Solve the inverse problem from the same cached profile.
	resp, err = http.Get(ts.URL + "/v1/solve?profile=" + first.Profile + "&target-psnr=60")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve status %d", resp.StatusCode)
	}
	var sol SolveResponse
	if err := json.NewDecoder(resp.Body).Decode(&sol); err != nil {
		t.Fatal(err)
	}
	if sol.Target != "psnr" || !(sol.AbsEB > 0) {
		t.Fatalf("solve %+v", sol)
	}
	if math.Abs(float64(sol.PSNR)-60) > 6 {
		t.Fatalf("solved bound models %.1f dB, target 60", sol.PSNR)
	}

	if snap := svc.Snapshot(); snap.ProfileBuilds != 1 || snap.ProfileHits != 1 ||
		snap.Estimates != 1 || snap.Solves != 1 {
		t.Fatalf("metrics %+v, want 1 build / 1 hit / 1 estimate / 1 solve", snap)
	}
}

// TestMalformedBodies checks every body-parsing endpoint returns the typed
// JSON envelope, with container errors mapped to their taxonomy codes.
func TestMalformedBodies(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	garbage := strings.NewReader("this is not a field or container")

	cases := []struct {
		path   string
		body   io.Reader
		status int
		code   string
	}{
		{"/v1/compress", strings.NewReader("junk body"), http.StatusUnprocessableEntity, "bad_field"},
		{"/v1/profile", garbage, http.StatusUnprocessableEntity, "bad_field"},
		{"/v1/decompress", strings.NewReader("completely bogus container bytes"), http.StatusUnprocessableEntity, "bad_magic"},
		{"/v1/decompress", strings.NewReader("x"), http.StatusUnprocessableEntity, "truncated"},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+tc.path, "application/octet-stream", tc.body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != tc.status {
			t.Fatalf("%s: status %d, want %d", tc.path, resp.StatusCode, tc.status)
		}
		if eb := decodeErrorBody(t, resp); eb.Error.Code != tc.code {
			t.Fatalf("%s: code %q, want %q", tc.path, eb.Error.Code, tc.code)
		}
		resp.Body.Close()
	}

	// Bad query parameters are 400s.
	resp, err := http.Post(ts.URL+"/v1/compress?mode=sideways", "application/octet-stream",
		strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad mode: status %d, want 400", resp.StatusCode)
	}
	if eb := decodeErrorBody(t, resp); eb.Error.Code != "bad_param" {
		t.Fatalf("bad mode: code %q, want bad_param", eb.Error.Code)
	}
	resp.Body.Close()

	// Unknown profile IDs are 404s.
	resp, err = http.Get(ts.URL + "/v1/estimate?profile=feedfacedeadbeef&eb=1e-3")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown profile: status %d, want 404", resp.StatusCode)
	}
	if eb := decodeErrorBody(t, resp); eb.Error.Code != "profile_not_found" {
		t.Fatalf("unknown profile: code %q, want profile_not_found", eb.Error.Code)
	}
	resp.Body.Close()

	// Wrong method on a POST endpoint.
	resp, err = http.Get(ts.URL + "/v1/compress")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET compress: status %d, want 405", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestConcurrencyLimit429 saturates the admission semaphore and checks the
// overflow request gets the typed 429 with Retry-After, while cheap
// endpoints stay admitted.
func TestConcurrencyLimit429(t *testing.T) {
	_, body := testField(t)
	svc, ts := newTestServer(t, Config{MaxInflight: 1})

	// Hold the only permit, as an in-flight heavy request would.
	svc.sem <- struct{}{}
	resp, err := http.Post(ts.URL+"/v1/profile", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated service: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if eb := decodeErrorBody(t, resp); eb.Error.Code != "too_many_requests" {
		t.Fatalf("429 code %q, want too_many_requests", eb.Error.Code)
	}
	resp.Body.Close()

	// Cheap endpoints bypass admission control.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz under saturation: status %d", resp.StatusCode)
	}
	resp.Body.Close()
	<-svc.sem

	// With the permit released the same request is admitted.
	resp, err = http.Post(ts.URL+"/v1/profile", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("released service: status %d, want 200", resp.StatusCode)
	}
	resp.Body.Close()
	if rej := svc.Snapshot().Rejected; rej != 1 {
		t.Fatalf("rejected counter %d, want 1", rej)
	}
}

// TestCacheEviction checks the LRU bound holds and evicted profiles 404.
func TestCacheEviction(t *testing.T) {
	svc, ts := newTestServer(t, Config{ProfileCacheSize: 1})

	var ids []string
	for seed := uint64(1); seed <= 2; seed++ {
		f, err := rqm.GenerateField("nyx/temperature", seed, rqm.ScaleTiny)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := f.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/profile", "application/octet-stream", &buf)
		if err != nil {
			t.Fatal(err)
		}
		var pr ProfileResponse
		if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		ids = append(ids, pr.Profile)
	}
	if svc.cache.len() != 1 {
		t.Fatalf("cache holds %d entries, capacity 1", svc.cache.len())
	}
	resp, err := http.Get(ts.URL + "/v1/estimate?profile=" + ids[0] + "&eb=1e-3")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted profile: status %d, want 404", resp.StatusCode)
	}
	resp.Body.Close()
	if resp, err = http.Get(ts.URL + "/v1/estimate?profile=" + ids[1] + "&eb=1e-3"); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resident profile: status %d, want 200", resp.StatusCode)
	}
	resp.Body.Close()
	if ev := svc.Snapshot().CacheEvictions; ev != 1 {
		t.Fatalf("eviction counter %d, want 1", ev)
	}
}

// TestMetricsAndHealth sanity-checks the observability endpoints.
func TestMetricsAndHealth(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if h.Status != "ok" || len(h.Codecs) == 0 {
		t.Fatalf("health %+v", h)
	}
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var m MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if m.Requests < 1 || m.MaxInflight < 1 {
		t.Fatalf("metrics %+v", m)
	}
}

// TestSnapshotIsConsistentCut: while requests run concurrently — some
// served, some failing, some refused admission — every snapshot taken
// mid-flight is one cut of the counters: a request's error or rejection is
// never visible without the request itself.
func TestSnapshotIsConsistentCut(t *testing.T) {
	_, body := testField(t)
	svc, ts := newTestServer(t, Config{MaxInflight: 1})
	svc.sem <- struct{}{} // hold the only permit: every heavy request is refused
	defer func() { <-svc.sem }()

	stop := make(chan struct{})
	scraped := make(chan int)
	go func() {
		n := 0
		defer func() { scraped <- n }()
		for ; ; n++ {
			select {
			case <-stop:
				return
			default:
			}
			if m := svc.Snapshot(); m.Errors > m.Requests || m.Rejected > m.Requests {
				t.Errorf("torn snapshot: requests %d, errors %d, rejected %d", m.Requests, m.Errors, m.Rejected)
				return
			}
		}
	}()
	const clients, each = 4, 30
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range each {
				var resp *http.Response
				var err error
				switch (c + i) % 3 {
				case 0: // heavy: refused with a 429
					resp, err = http.Post(ts.URL+"/v1/profile", "application/octet-stream", bytes.NewReader(body))
				case 1: // light, failing: the profile is not cached
					resp, err = http.Get(ts.URL + "/v1/estimate?profile=missing&eb=1e-3")
				default: // light, served
					resp, err = http.Get(ts.URL + "/healthz")
				}
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
	close(stop)
	if n := <-scraped; n == 0 {
		t.Fatal("no snapshot was taken while requests ran")
	}
	const third = clients * each / 3
	if m := svc.Snapshot(); m.Requests != 3*third || m.Errors != 2*third || m.Rejected != third {
		t.Fatalf("final snapshot: requests %d, errors %d, rejected %d; want %d, %d, %d",
			m.Requests, m.Errors, m.Rejected, 3*third, 2*third, third)
	}
}

// TestAdaptiveCompressTarget drives the model-guided streaming path over
// HTTP: target-psnr switches to per-chunk adaptive bounds with no range
// needed, and the reconstruction lands near the target.
func TestAdaptiveCompressTarget(t *testing.T) {
	f, body := testField(t)
	_, ts := newTestServer(t, Config{Model: rqm.ModelOptions{SampleRate: 0.1, Seed: 3}})

	resp, err := http.Post(ts.URL+"/v1/compress?target-psnr=60&chunk=4096", "application/octet-stream",
		bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("adaptive compress status %d", resp.StatusCode)
	}
	container, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	back, err := rqm.Decompress(container)
	if err != nil {
		t.Fatal(err)
	}
	psnr, err := rqm.PSNR(f, back)
	if err != nil {
		t.Fatal(err)
	}
	if psnr < 57 {
		t.Fatalf("adaptive PSNR %.2f dB misses the 60 dB target", psnr)
	}

	// Two positive targets are a bad request; a non-positive one is unset.
	for query, want := range map[string]int{
		"target-ratio=8&target-psnr=60":  http.StatusBadRequest,
		"target-ratio=0&target-psnr=60":  http.StatusOK,
		"target-ratio=-2&target-psnr=60": http.StatusOK,
	} {
		resp, err := http.Post(ts.URL+"/v1/compress?chunk=4096&"+query, "application/octet-stream",
			bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != want {
			t.Fatalf("compress %s: status %d, want %d", query, resp.StatusCode, want)
		}
		if want != http.StatusOK {
			if eb := decodeErrorBody(t, resp); eb.Error.Code != "bad_param" {
				t.Fatalf("compress %s: code %q", query, eb.Error.Code)
			}
		}
		resp.Body.Close()
	}
}

// TestEstimateAbsModeAndFlush covers abs-mode estimates and the operational
// cache flush: flushed profiles answer 404 afterwards.
func TestEstimateAbsModeAndFlush(t *testing.T) {
	_, body := testField(t)
	svc, ts := newTestServer(t, Config{})

	resp, err := http.Post(ts.URL+"/v1/profile", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var pr ProfileResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, err = http.Get(ts.URL + "/v1/estimate?profile=" + pr.Profile + "&eb=0.5&mode=abs")
	if err != nil {
		t.Fatal(err)
	}
	var est EstimateResponse
	if err := json.NewDecoder(resp.Body).Decode(&est); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if est.AbsEB != 0.5 {
		t.Fatalf("abs-mode estimate used bound %g, want 0.5", est.AbsEB)
	}

	svc.FlushProfiles()
	resp, err = http.Get(ts.URL + "/v1/estimate?profile=" + pr.Profile + "&eb=0.5&mode=abs")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("flushed profile: status %d, want 404", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestProfileOptionsChangeIdentity pins the content-addressing contract:
// the same field under different profile-relevant options is a different
// cache entry, not a false hit.
func TestProfileOptionsChangeIdentity(t *testing.T) {
	_, body := testField(t)
	svc, ts := newTestServer(t, Config{})

	post := func(query string) ProfileResponse {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/profile"+query, "application/octet-stream",
			bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("profile%s status %d", query, resp.StatusCode)
		}
		var pr ProfileResponse
		if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
			t.Fatal(err)
		}
		return pr
	}
	base := post("")
	interp := post("?predictor=interpolation&sample=0.05&seed=9")
	if interp.Profile == base.Profile {
		t.Fatal("different predictor/sampling produced the same profile ID")
	}
	if interp.Predictor != "interpolation" {
		t.Fatalf("profiled predictor %q, want interpolation", interp.Predictor)
	}
	if builds := svc.Snapshot().ProfileBuilds; builds != 2 {
		t.Fatalf("%d sampling passes, want 2", builds)
	}
}

// TestDecompressShapelessStream covers the ReadAll fallback: a chunked
// container with no recorded shape still decompresses (as 1-D).
func TestDecompressShapelessStream(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	vals := make([]float64, 3000)
	for i := range vals {
		vals[i] = float64(i % 97)
	}
	var container bytes.Buffer
	w, err := rqm.NewWriter(&container,
		rqm.WithChunkSize(1024),
		rqm.WithStreamCompression(rqm.CodecOptions{Mode: rqm.ABS, ErrorBound: 0.01}))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteValues(vals); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/decompress", "application/octet-stream",
		bytes.NewReader(container.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("shapeless decompress status %d", resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	f, err := readFieldBody(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if f.Len() != len(vals) || f.Rank() != 1 {
		t.Fatalf("shapeless stream decoded as %d values rank %d", f.Len(), f.Rank())
	}
}

// TestSolveVariants covers the remaining inverse problems and the
// exactly-one-target contract.
func TestSolveVariants(t *testing.T) {
	_, body := testField(t)
	_, ts := newTestServer(t, Config{})
	resp, err := http.Post(ts.URL+"/v1/profile", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var pr ProfileResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	for _, tc := range []struct{ query, target string }{
		{"target-ratio=8", "ratio"},
		{"target-bitrate=4", "bitrate"},
	} {
		resp, err := http.Get(ts.URL + "/v1/solve?profile=" + pr.Profile + "&" + tc.query)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("solve %s: status %d", tc.query, resp.StatusCode)
		}
		var sol SolveResponse
		if err := json.NewDecoder(resp.Body).Decode(&sol); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if sol.Target != tc.target || !(sol.AbsEB > 0) {
			t.Fatalf("solve %s: %+v", tc.query, sol)
		}
	}
	// Zero targets and two targets are both bad requests; a target counts as
	// named when present, whatever its value.
	for _, query := range []string{"", "&target-ratio=8&target-psnr=60", "&target-ratio=0&target-psnr=60"} {
		resp, err := http.Get(ts.URL + "/v1/solve?profile=" + pr.Profile + query)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("solve with targets %q: status %d, want 400", query, resp.StatusCode)
		}
		if eb := decodeErrorBody(t, resp); eb.Error.Code != "bad_param" {
			t.Fatalf("solve with targets %q: code %q", query, eb.Error.Code)
		}
		resp.Body.Close()
	}
	// One named target the solver refuses is the solver's verdict.
	resp, err = http.Get(ts.URL + "/v1/solve?profile=" + pr.Profile + "&target-ratio=0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if eb := decodeErrorBody(t, resp); resp.StatusCode != http.StatusBadRequest || eb.Error.Code != "unsolvable" {
		t.Fatalf("solve target-ratio=0: status %d code %q, want 400 unsolvable", resp.StatusCode, eb.Error.Code)
	}
}

// TestCorruptContainerMapsChecksum checks a bit-flipped container surfaces
// the checksum taxonomy code through the HTTP envelope.
func TestCorruptContainerMapsChecksum(t *testing.T) {
	_, body := testField(t)
	_, ts := newTestServer(t, Config{})
	resp, err := http.Post(ts.URL+"/v1/compress?mode=abs&eb=0.01&stream=1&chunk=2048",
		"application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	container, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	container[len(container)/2] ^= 0xFF // flip a payload byte

	resp, err = http.Post(ts.URL+"/v1/decompress", "application/octet-stream",
		bytes.NewReader(container))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	// The corruption may surface before the first response byte (422 with
	// the typed code) — anything else means the error envelope got lost.
	if resp.StatusCode == http.StatusUnprocessableEntity {
		if eb := decodeErrorBody(t, resp); eb.Error.Code != "checksum_mismatch" && eb.Error.Code != "corrupt" {
			t.Fatalf("corrupt container code %q", eb.Error.Code)
		}
	} else if resp.StatusCode == http.StatusOK {
		if _, err := io.ReadAll(resp.Body); err == nil {
			t.Fatal("corrupt container round-tripped cleanly")
		}
	} else {
		t.Fatalf("corrupt container status %d", resp.StatusCode)
	}
}

// TestUndecodablePayloadsAnswer422 checks that a valid envelope around a
// payload its codec cannot decode is the client's error, typed corrupt,
// never a 500 — and never memory sized by a shape the bytes cannot hold: the
// 74-byte envelope carries a 47-byte transform payload declaring 2^15×2^14
// values over a one-class codebook and 4 payload bytes. A chunked container
// whose stream header declares 2^65+8 values (each dimension below 2^32, the
// product wrapping int64 to the 8 values it holds) is corrupt too.
func TestUndecodablePayloadsAnswer422(t *testing.T) {
	le := binary.LittleEndian
	payload := le.AppendUint32(nil, 0x52515A46) // "RQZF"
	payload = le.AppendUint64(payload, math.Float64bits(1e-3))
	payload = append(payload, 32, 2)
	payload = le.AppendUint64(le.AppendUint64(payload, 1<<15), 1<<14)
	payload = le.AppendUint16(payload, 0)                     // no name
	payload = append(le.AppendUint32(payload, 3), 1, 1, 1)    // codebook
	payload = append(le.AppendUint32(payload, 4), 0, 0, 0, 0) // coefficients
	hostile, err := codec.Seal(codec.IDTransform, grid.MustNew("h", grid.Float32, 1), payload)
	if err != nil || len(hostile) != 74 {
		t.Fatalf("hostile envelope: %d bytes, %v", len(hostile), err)
	}
	f, _ := testField(t)
	pred, err := compressor.Compress(f, compressor.Options{Mode: compressor.ABS, ErrorBound: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	half, err := codec.Seal(codec.IDPrediction, f, pred.Bytes[:len(pred.Bytes)/2])
	if err != nil {
		t.Fatal(err)
	}

	var overflow bytes.Buffer
	w, err := rqm.NewWriter(&overflow, rqm.WithStreamShape(rqm.Float64, 8, 1, 1),
		rqm.WithStreamCompression(rqm.CodecOptions{Mode: rqm.ABS, ErrorBound: 1e-3}))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteValues([]float64{1, 2, 3, 4, 5, 6, 7, 8}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	le.PutUint64(overflow.Bytes()[16:], 1380655685) // dims follow the 8-byte prefix
	le.PutUint64(overflow.Bytes()[24:], 3340214413)

	_, ts := newTestServer(t, Config{})
	for name, body := range map[string][]byte{"transform 2^29 values in 4 bytes": hostile, "half a prediction payload": half,
		"stream of 2^65+8 values": overflow.Bytes()} {
		resp, err := http.Post(ts.URL+"/v1/decompress", "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("%s: status %d, want 422", name, resp.StatusCode)
		}
		if eb := decodeErrorBody(t, resp); eb.Error.Code != "corrupt" {
			t.Fatalf("%s: code %q, want corrupt", name, eb.Error.Code)
		}
		resp.Body.Close()
	}
}

// TestUndecodableFirstChunkAnswers422 checks that a stream whose first chunk
// will not decode is refused before the .rqmf header goes out: a typed 422,
// not a 200 whose body is cut short. One chunk's payload is not a prediction
// payload (its CRC is intact); the same chunk with a flipped payload byte
// fails its CRC.
func TestUndecodableFirstChunkAnswers422(t *testing.T) {
	var buf bytes.Buffer
	hdr := &codec.StreamHeader{CodecID: codec.IDPrediction, Prec: grid.Float64, Dims: []int{8}, Name: "bad", ChunkValues: 8}
	if _, err := codec.WriteStreamHeader(&buf, hdr); err != nil {
		t.Fatal(err)
	}
	at := int64(buf.Len())
	n, err := codec.WriteChunk(&buf, &codec.Chunk{CodecID: codec.IDPrediction, AbsBound: 1e-3, Values: 8,
		Payload: []byte("not a prediction payload")})
	if err != nil {
		t.Fatal(err)
	}
	entries := []codec.IndexEntry{{Offset: at, Values: 8, RecordBytes: int(n), AbsBound: 1e-3}}
	if _, err := codec.WriteTrailer(&buf, entries, 8, int64(buf.Len())); err != nil {
		t.Fatal(err)
	}
	undecodable := buf.Bytes()
	flipped := bytes.Clone(undecodable)
	flipped[at+int64(n)-1] ^= 0xFF // the payload's last byte

	_, ts := newTestServer(t, Config{})
	for _, tc := range []struct {
		name string
		body []byte
		code string
	}{{"undecodable payload", undecodable, "corrupt"}, {"payload fails its CRC", flipped, "checksum_mismatch"}} {
		resp, err := http.Post(ts.URL+"/v1/decompress", "application/octet-stream", bytes.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusUnprocessableEntity {
			resp.Body.Close()
			t.Fatalf("%s: status %d, want 422", tc.name, resp.StatusCode)
		}
		if resp.Header.Get("X-RQM-Field") != "" {
			t.Errorf("%s: the 422 carries X-RQM-Field %q", tc.name, resp.Header.Get("X-RQM-Field"))
		}
		eb := decodeErrorBody(t, resp)
		resp.Body.Close()
		if eb.Error.Code != tc.code {
			t.Errorf("%s: code %q, want %q", tc.name, eb.Error.Code, tc.code)
		}
	}
}

// TestUnpredictableCountMismatchAnswers422: a chunk whose container declares
// one more unpredictable value than its symbols use is refused with the
// status and code of one that declares one fewer.
func TestUnpredictableCountMismatchAnswers422(t *testing.T) {
	f, err := grid.FromData("unpred", grid.Float64, []float64{0, 1, 2, 3, 4, 5, 1e300, -1e300}, 8)
	if err != nil {
		t.Fatal(err)
	}
	res, err := compressor.Compress(f, compressor.Options{Mode: compressor.ABS, ErrorBound: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	// The container stores 1e300 and -1e300 exactly, after a u32 count of 2.
	at := bytes.Index(res.Bytes, binary.LittleEndian.AppendUint64(nil, math.Float64bits(1e300)))
	if at < 4 || binary.LittleEndian.Uint32(res.Bytes[at-4:]) != 2 {
		t.Fatal("no two-value unpredictable list in the container")
	}
	declare := func(count int) []byte {
		list := make([]byte, 8*count)
		copy(list, res.Bytes[at:at+16])
		payload := binary.LittleEndian.AppendUint32(bytes.Clone(res.Bytes[:at-4]), uint32(count))
		payload = append(append(payload, list...), res.Bytes[at+16:]...)
		var buf bytes.Buffer
		hdr := &codec.StreamHeader{CodecID: codec.IDPrediction, Prec: grid.Float64, Dims: []int{8}, Name: "unpred", ChunkValues: 8}
		if _, err := codec.WriteStreamHeader(&buf, hdr); err != nil {
			t.Fatal(err)
		}
		off := int64(buf.Len())
		n, err := codec.WriteChunk(&buf, &codec.Chunk{CodecID: codec.IDPrediction, AbsBound: 0.01, Values: 8, Payload: payload})
		if err != nil {
			t.Fatal(err)
		}
		entries := []codec.IndexEntry{{Offset: off, Values: 8, RecordBytes: int(n), AbsBound: 0.01}}
		if _, err := codec.WriteTrailer(&buf, entries, 8, int64(buf.Len())); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	_, ts := newTestServer(t, Config{})
	post := func(body []byte) (int, string) {
		resp, err := http.Post(ts.URL+"/v1/decompress", "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			return resp.StatusCode, ""
		}
		return resp.StatusCode, decodeErrorBody(t, resp).Error.Code
	}
	if status, _ := post(declare(2)); status != http.StatusOK {
		t.Fatalf("the container as written: status %d", status)
	}
	exhausted, exhaustedCode := post(declare(1))
	if exhausted != http.StatusUnprocessableEntity || exhaustedCode != "corrupt" {
		t.Fatalf("one declared, two used: status %d code %q, want 422 corrupt", exhausted, exhaustedCode)
	}
	if status, code := post(declare(3)); status != exhausted || code != exhaustedCode {
		t.Fatalf("three declared, two used: status %d code %q, want %d %q", status, code, exhausted, exhaustedCode)
	}
}

// TestBadValueRangeParams covers the lo,hi parser's rejection paths.
func TestBadValueRangeParams(t *testing.T) {
	_, body := testField(t)
	_, ts := newTestServer(t, Config{})
	for _, vr := range []string{"5", "a,b", "9,1"} {
		q := url.Values{}
		q.Set("stream", "1")
		q.Set("value-range", vr)
		resp, err := http.Post(ts.URL+"/v1/compress?"+q.Encode(), "application/octet-stream",
			bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("value-range %q: status %d, want 400", vr, resp.StatusCode)
		}
		if eb := decodeErrorBody(t, resp); eb.Error.Code != "bad_param" {
			t.Fatalf("value-range %q: code %q", vr, eb.Error.Code)
		}
		resp.Body.Close()
	}
}

// TestRequestScopedLossless exercises the lossless/codec override parsing.
func TestRequestScopedLossless(t *testing.T) {
	_, body := testField(t)
	_, ts := newTestServer(t, Config{})
	resp, err := http.Post(ts.URL+"/v1/compress?mode=abs&eb=0.5&lossless=flate&codec=prediction",
		"application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("lossless override status %d", resp.StatusCode)
	}
	if _, err := io.ReadAll(resp.Body); err != nil {
		t.Fatal(err)
	}
	// Unknown names map to bad_param, not 500.
	resp, err = http.Post(ts.URL+"/v1/compress?lossless=zpaq", "application/octet-stream",
		bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown lossless: status %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()
	// The query string is the only parameter channel: an X-RQM-<name> header
	// is not an option, so a malformed one cannot fail the request.
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/compress", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-RQM-eb", "not-a-number")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-RQM-Codec") != "prediction" {
		t.Fatalf("X-RQM-eb header: status %d codec %q, want the base engine's 200",
			resp.StatusCode, resp.Header.Get("X-RQM-Codec"))
	}
	resp.Body.Close()
}

// TestProfileNonFiniteCurveIsValidJSON pins the JSON contract on degenerate
// fields: a step field's sampled prediction errors are all exactly zero, so
// the modeled PSNR is +Inf — the response must still be decodable JSON
// (null for non-finite numbers), not a committed 200 with a broken body.
func TestProfileNonFiniteCurveIsValidJSON(t *testing.T) {
	vals := make([]float64, 4096)
	for i := range vals {
		if i >= len(vals)/2 {
			vals[i] = 1
		}
	}
	f, err := rqm.FieldFromData("step", rqm.Float64, vals, len(vals))
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	if _, err := f.WriteTo(&body); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{})
	resp, err := http.Post(ts.URL+"/v1/profile", "application/octet-stream", &body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("step-field profile status %d", resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) == 0 {
		t.Fatal("profile response has an empty body")
	}
	var pr ProfileResponse
	if err := json.Unmarshal(raw, &pr); err != nil {
		t.Fatalf("profile response is not valid JSON: %v\n%s", err, raw)
	}
	if pr.Profile == "" || len(pr.Curve) != curvePoints {
		t.Fatalf("degenerate profile %+v", pr)
	}
}

// TestProfileLosslessChangesIdentity pins the cache key against the
// lossless override, which changes the modeled curve: same field, different
// lossless stage, different profile ID — never a false hit.
func TestProfileLosslessChangesIdentity(t *testing.T) {
	_, body := testField(t)
	_, ts := newTestServer(t, Config{})
	post := func(query string) ProfileResponse {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/profile"+query, "application/octet-stream",
			bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var pr ProfileResponse
		if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
			t.Fatal(err)
		}
		return pr
	}
	plain := post("")
	flate := post("?lossless=flate")
	if flate.Profile == plain.Profile {
		t.Fatal("lossless override collided with the default profile ID")
	}
	if flate.Cached {
		t.Fatal("lossless override reported a (false) cache hit")
	}
}

// TestConstantFieldProfile pins the degenerate-profile contract end to end:
// a constant field profiles (Range 0, no curve), rel-mode estimates are an
// explicit 400 instead of all-zero answers, abs-mode still works, and
// out-of-range sample parameters reject up front.
func TestConstantFieldProfile(t *testing.T) {
	vals := make([]float64, 2048)
	for i := range vals {
		vals[i] = 1e6
	}
	f, err := rqm.FieldFromData("flat", rqm.Float64, vals, len(vals))
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	if _, err := f.WriteTo(&body); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{})
	resp, err := http.Post(ts.URL+"/v1/profile", "application/octet-stream",
		bytes.NewReader(body.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var pr ProfileResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if pr.Range != 0 || len(pr.Curve) != 0 {
		t.Fatalf("constant-field profile %+v, want zero range and no curve", pr)
	}

	// rel estimate: explicit 400, not ratio-0/PSNR-0 nonsense.
	resp, err = http.Get(ts.URL + "/v1/estimate?profile=" + pr.Profile + "&eb=1e-3&mode=rel")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("rel estimate on constant profile: status %d, want 400", resp.StatusCode)
	}
	if eb := decodeErrorBody(t, resp); eb.Error.Code != "bad_param" {
		t.Fatalf("rel estimate on constant profile: code %q", eb.Error.Code)
	}
	resp.Body.Close()

	// abs estimate still answers.
	resp, err = http.Get(ts.URL + "/v1/estimate?profile=" + pr.Profile + "&eb=0.5&mode=abs")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("abs estimate on constant profile: status %d", resp.StatusCode)
	}
	resp.Body.Close()

	// sample outside (0, 1] rejects before any sampling pass.
	resp, err = http.Post(ts.URL+"/v1/profile?sample=1.5", "application/octet-stream",
		bytes.NewReader(body.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("sample=1.5: status %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()
	// seed must be an unsigned integer.
	resp, err = http.Post(ts.URL+"/v1/profile?seed=-3", "application/octet-stream",
		bytes.NewReader(body.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("seed=-3: status %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()
}
