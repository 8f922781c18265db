package service

import (
	"bytes"
	"encoding/json"
	"maps"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"testing"

	"rqm/internal/store"
)

// servedFrame GETs dataset name's raw-put frame off svc, asserting a 200
// whose Content-Length is the body's length.
func servedFrame(t testing.TB, svc *Service, name string) []byte {
	t.Helper()
	rec := serve(svc, http.MethodGet, "/v1/datasets/"+name+"/raw", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s/raw: status %d: %s", name, rec.Code, rec.Body)
	}
	if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
		t.Fatalf("GET %s/raw: Content-Length %q for a %d-byte body", name, cl, rec.Body.Len())
	}
	return rec.Body.Bytes()
}

// datasetFiles reads every committed file of dataset name: container,
// manifest head, profile samples and, when present, residual.
func datasetFiles(t testing.TB, st *store.Store, name string) map[string][]byte {
	t.Helper()
	dir := filepath.Join(st.Dir(), "datasets", name)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for _, e := range entries {
		if files[e.Name()], err = os.ReadFile(filepath.Join(dir, e.Name())); err != nil {
			t.Fatal(err)
		}
	}
	return files
}

// frameSources puts a lossy and an exact dataset on a fresh store and
// returns the service, its store, and each dataset's name mapped to the
// frame GET /raw serves for it.
func frameSources(t testing.TB, body []byte) (*Service, *store.Store, map[string][]byte) {
	t.Helper()
	svc, st, ts := newStoreServer(t)
	frames := map[string][]byte{}
	for name, q := range map[string]string{"lossy": "", "exact": "&exact=1"} {
		putDataset(t, ts, name, "mode=abs&eb=1e-3&chunk=1024"+q, body)
		frames[name] = servedFrame(t, svc, name)
	}
	return svc, st, frames
}

// TestRawGetFrameIsWhatRawPutCommits: the frame GET /raw serves, POSTed to
// an empty store, is admitted 201 and commits the container, residual,
// manifest head and profile samples byte for byte as the source holds them.
func TestRawGetFrameIsWhatRawPutCommits(t *testing.T) {
	_, body := testField(t)
	_, src, frames := frameSources(t, body)
	dst, dstStore, _ := newStoreServer(t)
	for name, frame := range frames {
		if rec := serve(dst, http.MethodPost, "/v1/datasets/"+name+"/raw", frame); rec.Code != http.StatusCreated {
			t.Fatalf("%s: raw put of the served frame: status %d: %s", name, rec.Code, rec.Body)
		}
		want, got := datasetFiles(t, src, name), datasetFiles(t, dstStore, name)
		if _, ok := want[store.ResidualFile]; ok != (name == "exact") || len(want) < 3 {
			t.Fatalf("%s: source holds files %v", name, slices.Sorted(maps.Keys(want)))
		}
		if !maps.EqualFunc(want, got, bytes.Equal) {
			t.Fatalf("%s: committed files differ from the source's", name)
		}
	}
}

// TestRawGetRefusesCorruptSource: GET /raw of a dataset whose container
// fails shallow verification answers 422 corrupt_dataset and sends no byte
// of a frame, so a sync cannot spread the rot.
func TestRawGetRefusesCorruptSource(t *testing.T) {
	svc, st, ts := newStoreServer(t)
	_, body := testField(t)
	putDataset(t, ts, "rot", "mode=abs&eb=1e-3&chunk=1024&exact=1", body)
	m, err := st.Manifest("rot")
	if err != nil {
		t.Fatal(err)
	}
	path, err := st.ContainerPath("rot")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[m.Chunks[1].Offset+27] ^= 0xff // inside chunk 1's CRC-covered payload
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	before := svc.Snapshot()
	rec := serve(svc, http.MethodGet, "/v1/datasets/rot/raw", nil)
	var eb ErrorBody
	if rec.Code != http.StatusUnprocessableEntity || json.Unmarshal(rec.Body.Bytes(), &eb) != nil || eb.Error.Code != "corrupt_dataset" {
		t.Fatalf("GET /raw of a corrupt dataset: status %d: %q", rec.Code, rec.Body)
	}
	if rec.Header().Get("Content-Type") != "application/json" || rec.Header().Get("Content-Length") != "" {
		t.Fatalf("GET /raw of a corrupt dataset: headers %v", rec.Header())
	}
	if after := svc.Snapshot(); after.DatasetGets != before.DatasetGets {
		t.Fatalf("a refused frame counted %d dataset gets", after.DatasetGets-before.DatasetGets)
	}
}

// FuzzRawPutFrame: POST /raw is reachable by any client, so its frame
// parser must hold against any body. Seeded with the frames GET /raw serves
// for a lossy and an exact dataset, every mutation POSTed to a fresh store
// is either committed (2xx, leaving a dataset that passes shallow
// verification) or refused with a typed 4xx envelope — never a panic or a
// 5xx. An unmutated seed commits files byte-identical to the source's.
func FuzzRawPutFrame(f *testing.F) {
	_, src, frames := frameSources(f, waveBody(f, 4096, 0.5))
	for _, frame := range frames {
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		st, err := store.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		svc, err := New(Config{Store: st})
		if err != nil {
			t.Fatal(err)
		}
		for name, seed := range frames {
			rec := serve(svc, http.MethodPost, "/v1/datasets/"+name+"/raw", frame)
			switch {
			case rec.Code < 300:
				if err := st.VerifyDataset(name, false); err != nil {
					t.Fatalf("%s: a committed frame fails verification: %v", name, err)
				}
				if bytes.Equal(frame, seed) && !maps.EqualFunc(datasetFiles(t, src, name), datasetFiles(t, st, name), bytes.Equal) {
					t.Fatalf("%s: the served frame committed files that differ from the source's", name)
				}
			case rec.Code < 500:
				var eb ErrorBody
				if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Error.Code == "" {
					t.Fatalf("%s: status %d without a typed envelope: %q", name, rec.Code, rec.Body)
				}
			default:
				t.Fatalf("%s: status %d: %s", name, rec.Code, rec.Body)
			}
			if bytes.Equal(frame, seed) && rec.Code != http.StatusCreated {
				t.Fatalf("%s: the served frame was refused: status %d: %s", name, rec.Code, rec.Body)
			}
		}
	})
}
