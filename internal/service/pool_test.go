package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"rqm"
	"rqm/internal/poison"
	"rqm/internal/store"
)

// waveBody is the .rqmf body of an n-value float32 field; phase varies the
// values so two bodies share none.
func waveBody(t testing.TB, n int, phase float64) []byte {
	t.Helper()
	vals := make([]float64, n)
	for i := range vals {
		x := float64(i)/64 + phase
		vals[i] = float64(float32(math.Sin(x) + 0.25*math.Cos(3.1*x) + phase))
	}
	f, err := rqm.FieldFromData("wave", rqm.Float32, vals, n)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// serve runs one request through svc in-process and returns its recorder.
func serve(svc *Service, method, target string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	svc.ServeHTTP(rec, httptest.NewRequest(method, target, bytes.NewReader(body)))
	return rec
}

// leastAlloc returns the fewest bytes one of runs calls of fn allocates,
// measured on one P with the collector off, so pooled buffers stay where
// the previous call left them.
func leastAlloc(t *testing.T, runs int, fn func()) uint64 {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	least := uint64(math.MaxUint64)
	for range runs {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestPutAllocatesPerRequest: a warm put parses its body into a pooled
// field, so a shard put of a 2^18-value float32 field allocates well under
// a byte per body byte. Before, the parse alone took a new float64 per
// value, 2 B per body byte of an f32 field, and the whole put 2.42 B.
func TestPutAllocatesPerRequest(t *testing.T) {
	if poison.Enabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	svc, _, _ := newStoreServer(t)
	body := waveBody(t, 1<<18, 0)
	put := func() {
		if rec := serve(svc, http.MethodPost, "/v1/datasets/alloc?mode=rel&eb=1e-3", body); rec.Code != http.StatusCreated {
			t.Fatalf("put: status %d: %s", rec.Code, rec.Body)
		}
	}
	put() // warm: pools, profile scratch, the dataset directory
	// Measured 0.42 B per body byte (2-vCPU x86-64): the profile's
	// samples, the compressor's per-chunk containers and the commit's
	// staging, none of them a copy of the field.
	const budget = 0.6
	perByte := float64(leastAlloc(t, 3, put)) / float64(len(body))
	t.Logf("put: %.3f B per body byte", perByte)
	if perByte > budget {
		t.Errorf("a warm put allocates %.2f B per body byte, budget %.2f", perByte, budget)
	}
}

// TestRawPutFrameSizedByBody: the raw-put frame's 4-byte manifest length
// sizes nothing. A frame declaring the 16 MiB cap over a body of a few
// bytes fails 400 bad_manifest having allocated under 1 MiB; before, it
// allocated the 16 MiB the prefix named.
func TestRawPutFrameSizedByBody(t *testing.T) {
	if poison.Enabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	svc, _, _ := newStoreServer(t)
	frame := binary.BigEndian.AppendUint32(nil, RawPutMaxManifest)
	frame = append(frame, `{"version":1`...)
	var rec *httptest.ResponseRecorder
	send := func() { rec = serve(svc, http.MethodPost, "/v1/datasets/short/raw", frame) }
	send() // warm: the pooled reader
	grew := leastAlloc(t, 3, send)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("short frame: status %d: %s", rec.Code, rec.Body)
	}
	var eb ErrorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Error.Code != "bad_manifest" {
		t.Fatalf("short frame: %s (%v), want bad_manifest", rec.Body, err)
	}
	t.Logf("a %d-byte frame declaring %d bytes: %d bytes allocated", len(frame), RawPutMaxManifest, grew)
	if grew >= 1<<20 {
		t.Fatalf("a %d-byte frame allocated %d bytes", len(frame), grew)
	}
}

// poisonFieldPool leaves NaN-filled sample slices of capacity n in the
// field pool, so the next parse or exact read takes storage whose old
// values would show in any byte they leaked into.
func poisonFieldPool(n int) {
	for range 8 {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = math.NaN()
		}
		vals = vals[:0]
		fieldPool.Put(&vals)
	}
}

// writtenBytes is what a write leaves that a leaked pooled value would
// change: the container and residual files and the two hashes.
type writtenBytes struct {
	container, residual       []byte
	contentHash, originalHash string
}

func readWritten(t *testing.T, st *store.Store, name string) writtenBytes {
	t.Helper()
	m, err := st.Manifest(name)
	if err != nil {
		t.Fatal(err)
	}
	w := writtenBytes{contentHash: m.ContentHash}
	cpath, err := st.ContainerPath(name)
	if err != nil {
		t.Fatal(err)
	}
	if w.container, err = os.ReadFile(cpath); err != nil {
		t.Fatal(err)
	}
	if m.Residual != nil {
		w.originalHash = m.Residual.OriginalHash
		rpath := filepath.Join(st.Dir(), "datasets", name, store.ResidualFile)
		if w.residual, err = os.ReadFile(rpath); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

// TestPooledWritesLeakNoValues: a put, a promotion and a recompaction of
// an exact dataset write the same bytes on a service whose pooled fields
// held a larger field with other values (and NaN), while puts of other
// fields run beside them, as on a fresh one. The original hash is also
// held to the body's own samples.
func TestPooledWritesLeakNoValues(t *testing.T) {
	const n = 1 << 14
	b := waveBody(t, n, 0.5)
	samples := sha256.Sum256(b[len(b)-4*n:])
	run := func(dirty bool) map[string]writtenBytes {
		_, st, ts := newStoreServer(t)
		poison := func() {}
		if dirty {
			putDataset(t, ts, "big", "mode=rel&eb=1e-3&chunk=4096&exact=1", waveBody(t, 3*n, 2))
			poison = func() { poisonFieldPool(3 * n) }
			var noise [2][4][]byte
			for g := range noise {
				for i := range noise[g] {
					noise[g][i] = waveBody(t, (2+i)*n/2, float64(3+g*4+i))
				}
			}
			var wg sync.WaitGroup
			defer wg.Wait()
			for g := range noise {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i, body := range noise[g] {
						resp, err := http.Post(ts.URL+fmt.Sprintf("/v1/datasets/noise%d-%d?mode=rel&eb=1e-3&exact=1", g, i),
							"application/octet-stream", bytes.NewReader(body))
						if err != nil {
							t.Error(err)
							return
						}
						resp.Body.Close()
						if resp.StatusCode != http.StatusCreated {
							t.Errorf("noise put %d-%d: status %d", g, i, resp.StatusCode)
						}
					}
				}()
			}
		}
		poison()
		putDataset(t, ts, "put", "mode=rel&eb=1e-4&chunk=4096&exact=1", b)
		putDataset(t, ts, "promote", "mode=rel&eb=1e-4&chunk=4096", b)
		poison()
		if status, _, _ := postInfo(t, ts, "/v1/datasets/promote/promote", b); status != http.StatusCreated {
			t.Fatalf("dirty=%v: promote status %d", dirty, status)
		}
		putDataset(t, ts, "recompact", "mode=rel&eb=1e-5&chunk=4096&exact=1", b)
		poison()
		if rr, status := postRecompact(t, ts, "recompact", "target-psnr=60"); status != http.StatusOK || rr.Skipped {
			t.Fatalf("dirty=%v: recompact status %d, %+v", dirty, status, rr)
		}
		out := map[string]writtenBytes{}
		for _, name := range []string{"put", "promote", "recompact"} {
			out[name] = readWritten(t, st, name)
		}
		return out
	}
	fresh, dirty := run(false), run(true)
	for name, want := range fresh {
		got := dirty[name]
		switch {
		case !bytes.Equal(got.container, want.container):
			t.Errorf("%s: the container differs after a dirty pool", name)
		case !bytes.Equal(got.residual, want.residual):
			t.Errorf("%s: the residual differs after a dirty pool", name)
		case got.contentHash != want.contentHash || got.originalHash != want.originalHash:
			t.Errorf("%s: hashes %s/%s after a dirty pool, %s/%s fresh", name,
				got.contentHash, got.originalHash, want.contentHash, want.originalHash)
		case got.originalHash != hex.EncodeToString(samples[:]):
			t.Errorf("%s: original hash %s, the body's samples hash to %x", name, got.originalHash, samples)
		}
	}
}
