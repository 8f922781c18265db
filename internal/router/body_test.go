package router

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"path"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rqm/internal/poison"
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
// into one pooled buffer of that length, which the last transport to close
// it hands back, so a warm routed put allocates almost nothing per body
// byte, and the shard receives the body intact. io.ReadAll grew the buffer
// from 512 bytes by doubling copies, 5.05 B per body byte of this 4 MiB
// body; one unpooled buffer of the declared length took 1.02.
func TestRoutedPutBuffersOnce(t *testing.T) {
	if poison.Enabled {
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
	if perByte > 0.1 {
		t.Errorf("a routed put allocates %.3f B per body byte, want at most 0.1", perByte)
	}
	if sum, n := sh.last(); n != int64(len(body)) || sum != sha256.Sum256(body) {
		t.Fatalf("the shard read %d bytes that differ from the %d-byte body", n, len(body))
	}
}

// TestRouterBodyTooLarge pins the router's 413 body_too_large, with its
// cap at 1 KiB: a body that declares a length over the cap and a chunked
// body that runs over it are both refused and never reach the shard; a
// chunked body under the cap reaches it intact. A body that ends before
// its declared length is a 400 read_failed, not a 413: the router used to
// answer 413 for any read error.
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
	// Truncated: 1,000 bytes declared, 3 sent, then the client stops writing.
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "POST /v1/datasets/d HTTP/1.1\r\nHost: router\r\nContent-Length: 1000\r\n\r\nabc"); err != nil {
		t.Fatal(err)
	}
	conn.(*net.TCPConn).CloseWrite()
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	if eb := decodeErr(t, resp); resp.StatusCode != http.StatusBadRequest || eb.Error.Code != "read_failed" {
		t.Fatalf("body of 3 bytes declaring 1000: status %d code %q (%s), want 400 read_failed",
			resp.StatusCode, eb.Error.Code, eb.Error.Message)
	}
	if _, n := sh.last(); n != 0 {
		t.Fatalf("a truncated body reached the shard (%d bytes)", n)
	}
	under := over[:maxBody]
	if resp := post(io.MultiReader(bytes.NewReader(under))); resp.StatusCode != http.StatusCreated {
		t.Fatalf("chunked body at the cap: status %d, want 201", resp.StatusCode)
	}
	if sum, n := sh.last(); n != maxBody || sum != sha256.Sum256(under) {
		t.Fatalf("the shard read %d bytes that differ from the %d-byte chunked body", n, maxBody)
	}
}

// seenBody is what a body-recording shard read of one request's body.
type seenBody struct {
	name     string // the dataset the request named
	got      []byte // the bytes read, up to the end or the first error
	err      error
	declared int64 // the request's Content-Length (-1: none, chunked)
}

// bodyShard starts a shard that hands every dataset request's body, as
// read by handle's read, to seen, and answers 201. handle is a plain read
// unless a test replaces it.
func bodyShard(t *testing.T, seen chan<- seenBody, handle func(w http.ResponseWriter, r *http.Request, read func())) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		read := func() {
			got, err := io.ReadAll(r.Body)
			seen <- seenBody{path.Base(r.URL.Path), got, err, r.ContentLength}
		}
		if handle != nil {
			handle(w, r, read)
			return
		}
		read()
		w.WriteHeader(http.StatusCreated)
	}))
	t.Cleanup(ts.Close)
	return ts
}

// smallSendClient is an outbound client whose connections have 128 KiB
// send buffers (the kernel otherwise grows one to megabytes), so most of a
// body the shard has not read yet stays in the transport, not the kernel.
func smallSendClient(t *testing.T) *http.Client {
	tr := &http.Transport{DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
		c, err := (&net.Dialer{}).DialContext(ctx, network, addr)
		if tc, ok := c.(*net.TCPConn); ok {
			_ = tc.SetWriteBuffer(128 << 10)
		}
		return c, err
	}}
	t.Cleanup(tr.CloseIdleConnections)
	return &http.Client{Transport: tr}
}

// patterned returns n bytes that differ from every other k's.
func patterned(k, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7>>3 + k*101)
	}
	b[0] = byte(k)
	return b
}

// routedPut puts body as dataset name through rt and returns the status.
func routedPut(rt *Router, name string, body []byte) int {
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/datasets/"+name, bytes.NewReader(body)))
	return rec.Code
}

// receive collects n seen bodies, failing the test after 10 s.
func receive(t *testing.T, seen <-chan seenBody, n int) []seenBody {
	t.Helper()
	out := make([]seenBody, 0, n)
	for len(out) < n {
		select {
		case s := <-seen:
			out = append(out, s)
		case <-time.After(10 * time.Second):
			t.Fatalf("the shard saw %d of %d bodies", len(out), n)
		}
	}
	return out
}

// TestBodyLifetimeEarlyAnswer: a shard that answers before it reads the
// body, and reads it only once the routed put has returned. Go's HTTP/1
// transport holds the answer back up to 50 ms for the request's write to
// finish; past that it closes the connection, and its write loop, blocked
// mid-body (the connection's small send buffer keeps all but a few hundred
// KiB out of the kernel), closes the request body only after the put has
// returned and the handler has dropped its reference. The pooled buffer
// must not be poisoned or reused until then: what the shard reads, a
// prefix of the body, is the body's own. Under -race, handing the buffer
// back when the handler returns, whatever the transports hold, fails this
// test: the race detector reports the poisoning write against the write
// loop's reads, which nothing orders before it.
func TestBodyLifetimeEarlyAnswer(t *testing.T) {
	const puts, size = 6, 2 << 20
	bodies := make(map[string][]byte)
	gates := make(map[string]chan struct{})
	for k := range puts {
		name := fmt.Sprintf("b%d", k)
		bodies[name], gates[name] = patterned(k, size), make(chan struct{})
	}
	seen := make(chan seenBody, puts)
	sh := bodyShard(t, seen, func(w http.ResponseWriter, r *http.Request, read func()) {
		rc := http.NewResponseController(w)
		if err := rc.EnableFullDuplex(); err != nil {
			t.Error(err)
		}
		w.Header().Set("Content-Length", "2")
		w.WriteHeader(http.StatusCreated)
		_, _ = io.WriteString(w, "{}")
		_ = rc.Flush()
		select {
		case <-gates[path.Base(r.URL.Path)]: // the routed put has returned
		case <-time.After(10 * time.Second):
		}
		read()
	})
	rt, err := New(Config{Shards: []string{sh.URL}, Replicas: 1, ProbeInterval: -1, Client: smallSendClient(t)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	for k := range puts {
		name := fmt.Sprintf("b%d", k)
		if code := routedPut(rt, name, bodies[name]); code != http.StatusCreated {
			t.Fatalf("put %s: status %d, want 201", name, code)
		}
		close(gates[name])
	}
	whole := 0
	for _, s := range receive(t, seen, puts) {
		want := bodies[s.name]
		if len(s.got) > len(want) || !bytes.Equal(s.got, want[:len(s.got)]) {
			t.Errorf("%s: the %d bytes the shard read are not the body's first bytes", s.name, len(s.got))
		}
		if s.err == nil {
			whole++
		}
	}
	t.Logf("%d of %d bodies arrived whole", whole, puts)
}

// TestBodyLifetimeFailoverReplay: the first shard to take a put drops the
// connection mid-body, and the router replays the whole body, at its
// declared length, to the next member of the write set.
func TestBodyLifetimeFailoverReplay(t *testing.T) {
	body := patterned(1, 1<<20)
	seen := make(chan seenBody, 2)
	var dropped atomic.Bool
	handle := func(w http.ResponseWriter, r *http.Request, read func()) {
		if dropped.CompareAndSwap(false, true) {
			_, _ = io.CopyN(io.Discard, r.Body, 64<<10)
			conn, _, err := w.(http.Hijacker).Hijack()
			if err != nil {
				t.Error(err)
				return
			}
			conn.Close()
			return
		}
		read()
		w.WriteHeader(http.StatusCreated)
	}
	a, b := bodyShard(t, seen, handle), bodyShard(t, seen, handle)
	rt, err := New(Config{Shards: []string{a.URL, b.URL}, Replicas: 2, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	routedPut(rt, "d", body) // 502 quorum_failed: the dropping shard is down now
	s := receive(t, seen, 1)[0]
	if m := rt.Snapshot(); m.Failovers != 1 {
		t.Fatalf("%d failovers, want 1", m.Failovers)
	}
	if s.err != nil || sha256.Sum256(s.got) != sha256.Sum256(body) || s.declared != int64(len(body)) {
		t.Fatalf("replayed body: %d bytes (declared %d, err %v) that differ from the %d-byte body",
			len(s.got), s.declared, s.err, len(body))
	}
}

// TestBodyLifetimeConcurrentPuts: routed puts of different bodies, of
// different sizes, at once and in rounds, so pooled buffers change hands
// between them: each reaches its shard intact, at its declared length.
func TestBodyLifetimeConcurrentPuts(t *testing.T) {
	const clients, rounds = 6, 4
	seen := make(chan seenBody, clients*rounds)
	sh := bodyShard(t, seen, nil)
	rt, err := New(Config{Shards: []string{sh.URL}, Replicas: 1, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	bodies := make(map[string][]byte)
	for c := range clients {
		for r := range rounds {
			name := fmt.Sprintf("c%dr%d", c, r)
			bodies[name] = patterned(c*rounds+r, (1+(c+r)%4)<<16)
		}
	}
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range rounds {
				name := fmt.Sprintf("c%dr%d", c, r)
				if code := routedPut(rt, name, bodies[name]); code != http.StatusCreated {
					t.Errorf("put %s: status %d, want 201", name, code)
				}
			}
		}()
	}
	wg.Wait()
	for _, s := range receive(t, seen, clients*rounds) {
		want := bodies[s.name]
		if s.err != nil || !bytes.Equal(s.got, want) || s.declared != int64(len(want)) {
			t.Errorf("%s: the shard read %d bytes (declared %d, err %v) that differ from the %d-byte body",
				s.name, len(s.got), s.declared, s.err, len(want))
		}
	}
}
