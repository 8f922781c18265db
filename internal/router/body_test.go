package router

import (
	"bytes"
	"crypto/sha256"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
)

// stubShard answers every dataset put 201 after reading its body, and
// keeps the SHA-256 and length of the last body it read. It parses and
// stores nothing, so a put through a router over it allocates little
// beyond what the router itself does.
type stubShard struct {
	ts   *httptest.Server
	mu   sync.Mutex
	sum  [sha256.Size]byte
	size int64
}

func newStubShard(t *testing.T) *stubShard {
	t.Helper()
	s := &stubShard{}
	s.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h := sha256.New()
		n, err := io.Copy(h, r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		s.mu.Lock()
		h.Sum(s.sum[:0])
		s.size = n
		s.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusCreated)
		_, _ = io.WriteString(w, `{"name":"stub"}`)
	}))
	t.Cleanup(s.ts.Close)
	return s
}

// last returns the SHA-256 and length of the last body the stub read.
func (s *stubShard) last() ([sha256.Size]byte, int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sum, s.size
}

// stubRouter is one router over one stub shard (R=1, so a put syncs
// nothing), capping write bodies at maxBody.
func stubRouter(t *testing.T, maxBody int64) (*Router, *stubShard) {
	t.Helper()
	sh := newStubShard(t)
	rt, err := New(Config{Shards: []string{sh.ts.URL}, Replicas: 1, ProbeInterval: -1, MaxBodyBytes: maxBody})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt, sh
}

// TestRoutedPutBuffersOnce: a put body that declares its length is read
// into one buffer of that length, so the router's share of a routed put is
// about one byte per body byte, and the shard receives the body intact.
// Before, io.ReadAll grew the buffer from 512 bytes by doubling copies:
// 5.05 B per body byte of this 4 MiB body.
func TestRoutedPutBuffersOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	rt, sh := stubRouter(t, 0)
	body := make([]byte, 4<<20)
	for i := range body {
		body[i] = byte(i * 7 >> 3)
	}
	put := func() {
		rec := httptest.NewRecorder()
		rt.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/datasets/d", bytes.NewReader(body)))
		if rec.Code != http.StatusCreated {
			t.Fatalf("routed put: status %d: %s", rec.Code, rec.Body)
		}
	}
	put() // warm: the shard connection
	least := uint64(math.MaxUint64)
	func() {
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			put()
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
	}()
	// The measured share is the whole put, stub shard and transport
	// included: an upper bound on the router's.
	perByte := float64(least) / float64(len(body))
	t.Logf("routed put: %.3f B per body byte", perByte)
	if perByte > 1.1 {
		t.Errorf("a routed put allocates %.2f B per body byte, want at most 1.1", perByte)
	}
	if sum, n := sh.last(); n != int64(len(body)) || sum != sha256.Sum256(body) {
		t.Fatalf("the shard read %d bytes that differ from the %d-byte body", n, len(body))
	}
}

// TestRouterBodyTooLarge pins the router's 413 body_too_large, with its
// cap at 1 KiB: a body that declares a length over the cap and a chunked
// body that runs over it are both refused and never reach the shard; a
// chunked body under the cap reaches it intact.
func TestRouterBodyTooLarge(t *testing.T) {
	const maxBody = 1 << 10
	rt, sh := stubRouter(t, maxBody)
	ts := httptest.NewServer(rt)
	t.Cleanup(ts.Close)
	post := func(body io.Reader) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/datasets/d", "application/octet-stream", body)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	over := bytes.Repeat([]byte{0xab}, maxBody+1)
	for _, tc := range []struct {
		name string
		body io.Reader
	}{
		{"declared", bytes.NewReader(over)},
		// A reader of unknown length goes out chunked, with no Content-Length.
		{"chunked", io.MultiReader(bytes.NewReader(over))},
	} {
		resp := post(tc.body)
		if eb := decodeErr(t, resp); resp.StatusCode != http.StatusRequestEntityTooLarge || eb.Error.Code != "body_too_large" {
			t.Fatalf("%s body of %d bytes over a %d-byte cap: status %d code %q, want 413 body_too_large",
				tc.name, len(over), maxBody, resp.StatusCode, eb.Error.Code)
		}
		if _, n := sh.last(); n != 0 {
			t.Fatalf("%s body over the cap reached the shard (%d bytes)", tc.name, n)
		}
	}
	under := over[:maxBody]
	if resp := post(io.MultiReader(bytes.NewReader(under))); resp.StatusCode != http.StatusCreated {
		t.Fatalf("chunked body at the cap: status %d, want 201", resp.StatusCode)
	}
	if sum, n := sh.last(); n != maxBody || sum != sha256.Sum256(under) {
		t.Fatalf("the shard read %d bytes that differ from the %d-byte chunked body", n, maxBody)
	}
}
