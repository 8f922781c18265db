package service

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"rqm/internal/store"
)

// The fixtures below were written by an rqserved whose manifests were
// version 1, with the profile's sampled errors inline as base64
// (errors_b64): a 64×64 float32 dataset put with mode=rel&eb=1e-3&chunk=1024,
// and the raw-put frame ([length][full manifest][container]) a router sent
// for it. Every hash is of a response body that rqserved gave.
const (
	legacyDataset = "../store/testdata/pre_pr30_dataset"
	legacyFrame   = "../store/testdata/pre_pr30_raw_put.bin"
	// legacyFullSum is the ?manifest=1&full=1 body: the replication wire form.
	legacyFullSum = "d980f2cdde6574c2a7eb03ef2265bb4df3044ed27ca348d2d127de16635286db"
)

func sha256Hex(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// TestVersion1DatasetServesUnchanged opens a store over the version-1
// dataset and holds stat, list, full manifest, slice, GET, deep verify and a
// recompaction — and the same reads of the rewritten dataset — to the bytes
// the writer's rqserved answered.
func TestVersion1DatasetServesUnchanged(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "datasets", "legacy")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{store.ContainerFile, store.ManifestFile} {
		b, err := os.ReadFile(filepath.Join(legacyDataset, f))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, f), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st, err := store.Open(root)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Store: st})

	check := func(when string, pins map[string]string) {
		t.Helper()
		for path, want := range pins {
			status, body, _ := getBody(t, ts, path)
			if status != http.StatusOK {
				t.Fatalf("%s: GET %s: status %d: %s", when, path, status, body)
			}
			if got := sha256Hex(body); got != want {
				t.Errorf("%s: GET %s: body hashes to %s, the writer answered %s", when, path, got, want)
			}
		}
		if err := st.VerifyDataset("legacy", true); err != nil {
			t.Fatalf("%s: deep verify: %v", when, err)
		}
	}
	check("as written", map[string]string{
		"/v1/datasets/legacy?manifest=1":             "43f8c82e16f8bcb8fd498b86881879fd64bdc5618f4fd96a7646570dd87ee6ba",
		"/v1/datasets/legacy?manifest=1&full=1":      legacyFullSum,
		"/v1/datasets":                               "489b8c182e1a9fae485c222c679f33a84cb59e0e5c416e680c86011a201afc19",
		"/v1/datasets/legacy/slice?off=1000&len=300": "e470750cbd1b7b4ca544b3517e04cf47ba89c35f90a5c3dbe0fa4ba5e21d4fa5",
		"/v1/datasets/legacy":                        "e2b2fb018b751e41df2028845412dcd2a8feb844f3d385e7f50140ecbbf19756",
	})

	resp, err := http.Post(ts.URL+"/v1/datasets/legacy/recompact?target-psnr=55", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recompact: status %d: %s", resp.StatusCode, body)
	}
	if got, want := sha256Hex(body), "942246ac85a376e2e39b937c73d580d4d6a11822a54a51e105c661dfe19c383b"; got != want {
		t.Errorf("recompact answer hashes to %s, the writer answered %s: %s", got, want, body)
	}

	check("recompacted", map[string]string{
		"/v1/datasets/legacy?manifest=1":             "9adb60155e5cd8f27fe4bf01405d9ceee1e929a496003545be3369c12090d5a8",
		"/v1/datasets/legacy?manifest=1&full=1":      "ca33ce66457a6b38f6d5207c328124e4ef2c62c525c7bd70ca8804fd9716a867",
		"/v1/datasets/legacy/slice?off=1000&len=300": "ef224552610505a18325fafdd2330ce2dcc50d323c3b3df0c12fed29d25ed5a9",
		"/v1/datasets/legacy":                        "4eb72e9561463c4145b82c4bcc3a8f91ba22844be67f0da301ea31165e9ed894",
	})
}

// TestVersion1RawPutFrameAccepted replays the writer's raw-put frame onto an
// empty store: it is stored, and the store serves back the full manifest the
// writer sent.
func TestVersion1RawPutFrameAccepted(t *testing.T) {
	_, st, ts := newStoreServer(t)
	frame, err := os.ReadFile(legacyFrame)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []struct {
		status  int
		outcome string
	}{{http.StatusCreated, "stored"}, {http.StatusOK, "skipped"}} {
		resp := rawPut(t, ts, "legacy", "", frame)
		resp.Body.Close()
		if resp.StatusCode != want.status || resp.Header.Get("X-RQM-Raw-Put") != want.outcome {
			t.Fatalf("raw put: status %d %q, want %d %q",
				resp.StatusCode, resp.Header.Get("X-RQM-Raw-Put"), want.status, want.outcome)
		}
	}
	status, body, _ := getBody(t, ts, "/v1/datasets/legacy?manifest=1&full=1")
	if status != http.StatusOK || sha256Hex(body) != legacyFullSum {
		t.Fatalf("full manifest after raw put: status %d, hash %s, want %s", status, sha256Hex(body), legacyFullSum)
	}
	if err := st.VerifyDataset("legacy", true); err != nil {
		t.Fatal(err)
	}
}
