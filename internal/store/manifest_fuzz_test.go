package store_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"rqm"
	"rqm/internal/store"
)

// validManifestJSON builds one fully valid manifest (with a real cached
// profile) as the fuzz corpus anchor.
func validManifestJSON(t testing.TB) []byte {
	t.Helper()
	f := testField(t, 512)
	p, err := rqm.NewProfile(f, rqm.Lorenzo, rqm.ModelOptions{SampleRate: 0.25, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	m := &store.Manifest{
		Version:        store.WireVersion,
		Name:           "fuzz-seed",
		PrecBits:       64,
		Dims:           []int{512},
		Codec:          "prediction",
		Predictor:      "lorenzo",
		Mode:           "abs",
		ErrorBound:     1e-3,
		ContentHash:    strings.Repeat("cd", 32),
		TotalValues:    512,
		OriginalBytes:  4096,
		ContainerBytes: 1024,
		Ratio:          4,
		Chunks: []store.ChunkRecord{
			{Offset: 32, Values: 256, RecordBytes: 500, AbsBound: 1e-3},
			{Offset: 532, Values: 256, RecordBytes: 470, AbsBound: 1e-3},
		},
		Profile: store.NewProfileRecord(p),
	}
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.ParseManifest(data); err != nil {
		t.Fatalf("seed manifest does not parse: %v", err)
	}
	return data
}

// TestParseManifestPipelineNames pins the closed enums a recompaction
// rebuilds its engine from: an unknown predictor, lossless backend or mode is
// manifest corruption, while the omitempty fields may be absent. The profile
// record is held to the same standard.
func TestParseManifestPipelineNames(t *testing.T) {
	valid := string(validManifestJSON(t))
	for _, tc := range []struct {
		old, new string
		ok       bool
	}{
		{`"predictor":"lorenzo",`, `"predictor":"bogus",`, false},
		{`"mode":"abs"`, `"mode":"abs","lossless":"bogus"`, false},
		{`"mode":"abs"`, `"mode":"pwrel"`, false},
		{`"mode":"abs"`, `"mode":""`, false},
		{`"predictor":"lorenzo",`, ``, true},
		{`"mode":"abs"`, `"mode":"rel","lossless":"flate"`, true},
		// The profile record (core.ProfileRecord): its labels, its scalars,
		// and a sample vector that is not base64, not whole float64s, or NaN.
		{`"predictor":"lorenzo","dims"`, `"predictor":"Kind(100)","dims"`, false},
		{`"predictor":"lorenzo","dims"`, `"predictor":"transform","dims"`, true},
		{`"errors_b64"`, `"entropy":"bogus","errors_b64"`, false},
		{`"errors_b64"`, `"entropy":"ans","use_lossless":true,"errors_b64"`, true},
		{`"n":512`, `"n":0`, false},
		{`"range":`, `"range":-`, false},
		{`"errors_b64":"`, `"errors_b64":"!`, false},
		{`"errors_b64":"`, `"errors_b64":"AAAA`, false},
		{`"errors_b64":"`, `"errors_b64":"AAAAAAAA+H8AAAAAAAD4fwAAAAAAAPh/`, false},
	} {
		_, err := store.ParseManifest([]byte(strings.Replace(valid, tc.old, tc.new, 1)))
		if tc.ok && err != nil {
			t.Errorf("%s -> %s: rejected: %v", tc.old, tc.new, err)
		}
		if !tc.ok && !errors.Is(err, store.ErrManifestCorrupt) {
			t.Errorf("%s -> %s: error %v, want ErrManifestCorrupt", tc.old, tc.new, err)
		}
	}
}

// FuzzManifest hammers ParseManifest and the profile samples loader with
// valid, truncated, and field-corrupted manifests, each paired with a
// sidecar: version-1 manifests carry their samples inline and ignore it;
// version-2 heads must join it, or refuse it typed when it is truncated, of
// odd length, holds a NaN sample, or misses the size or hash the head
// records. Malformed input must yield a typed error (ErrManifestCorrupt /
// ErrManifestVersion from the parse, ErrCorruptDataset from the join), never
// a panic, and anything accepted must survive a round trip: the manifest
// through marshal/parse, and a joined pair back through SplitProfile to the
// same head and sidecar.
func FuzzManifest(f *testing.F) {
	valid := validManifestJSON(f)
	f.Add(valid, []byte(nil))
	// Truncations at several depths.
	for _, frac := range []int{2, 3, 10} {
		f.Add(valid[:len(valid)/frac], []byte(nil))
	}
	// Field corruptions: wrong version, negative counts, bad base64, rank
	// overflow, inconsistent chunk index, bad predictor, NaN-smuggling.
	for _, s := range []string{
		`{}`,
		`not json at all`,
		`{"version":99,"name":"x"}`,
		strings.Replace(string(valid), `"version":1`, `"version":2`, 1),
		strings.Replace(string(valid), `"total_values":512`, `"total_values":-1`, 1),
		strings.Replace(string(valid), `"dims":[512]`, `"dims":[1,1,1,1,1]`, 1),
		strings.Replace(string(valid), `"dims":[512]`, `"dims":[0]`, 1),
		strings.Replace(string(valid), `"name":"fuzz-seed"`, `"name":"../escape"`, 1),
		strings.Replace(string(valid), `"predictor":"lorenzo"`, `"predictor":"warp-drive"`, 1),
		strings.Replace(string(valid), `"mode":"abs"`, `"mode":"pwrel"`, 1),
		strings.Replace(string(valid), `"mode":"abs"`, `"mode":"abs","lossless":"zpaq"`, 1),
		strings.Replace(string(valid), `"errors_b64":"`, `"errors_b64":"!!!`, 1),
		strings.Replace(string(valid), `"prec_bits":64`, `"prec_bits":48`, 1),
	} {
		f.Add([]byte(s), []byte(nil))
	}
	// Container-hash variants: valid, non-hex, wrong length. The scrubber
	// trusts this field as its deep reference, so a parse must either accept
	// a well-formed digest or reject typed — never let junk through.
	for _, h := range []string{strings.Repeat("ab", 32), strings.Repeat("zz", 32), "abcd"} {
		f.Add([]byte(strings.Replace(string(valid), `"name":"fuzz-seed"`,
			`"name":"fuzz-seed","container_hash":"`+h+`"`, 1)), []byte(nil))
	}
	// Residual-section variants: a valid record, an unknown backend, a
	// malformed hash, non-positive byte counts, and a truncated section. A
	// malformed record must reject typed — the exact-read path trusts these
	// fields as its integrity reference.
	resOK := `"residual":{"backend":"ans","bytes":2048,"hash":"` + strings.Repeat("ef", 32) +
		`","original_hash":"` + strings.Repeat("01", 32) + `"}`
	for _, res := range []string{
		resOK,
		strings.Replace(resOK, `"ans"`, `"warp-drive"`, 1),
		strings.Replace(resOK, strings.Repeat("ef", 32), "zz", 1),
		strings.Replace(resOK, `"bytes":2048`, `"bytes":0`, 1),
		resOK[:len(resOK)/2],
	} {
		f.Add([]byte(strings.Replace(string(valid), `"name":"fuzz-seed"`, `"name":"fuzz-seed",`+res, 1)), []byte(nil))
	}
	// Version-2 heads and their sidecars: the pair as committed, the sidecar
	// truncated, of odd length, with a NaN sample under a hash that matches
	// it, or disagreeing with the head's size or hash; and heads that break
	// the version's rules — samples inline, no samples record, a version-1
	// manifest naming a sidecar.
	head, samples := validHead(f, valid)
	f.Add(head, samples)
	f.Add(head, samples[:len(samples)/2])
	f.Add(head, samples[:len(samples)-3])
	nan := bytes.Clone(samples)
	binary.LittleEndian.PutUint64(nan[8:], math.Float64bits(math.NaN()))
	nanSum := sha256.Sum256(nan)
	f.Add(bytes.Replace(head, []byte(hashOf(samples)), []byte(hex.EncodeToString(nanSum[:])), 1), nan)
	f.Add(head, append(bytes.Clone(samples), samples[:8]...))
	f.Add(head, bytes.Replace(samples, samples[:8], make([]byte, 8), 1))
	f.Add(bytes.Replace(head, []byte(`"sample_rate"`), []byte(`"errors_b64":"AAAAAAAAAAA=","sample_rate"`), 1), samples)
	f.Add(bytes.Replace(head, []byte(`"profile_samples"`), []byte(`"ignored"`), 1), samples)
	f.Add(bytes.Replace(valid, []byte(`"profile":`), []byte(`"profile_samples":{"bytes":8,"hash":"`+hashOf(samples[:8])+`"},"profile":`), 1), samples[:8])
	// The archived manifests (the compatibility table's rows): a record from
	// before the profile named its pipeline, and a version-1 dataset's.
	for _, path := range []string{"testdata/pre_pr18_manifest.json", "testdata/pre_pr30_dataset/manifest.json"} {
		archived, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(archived, []byte(nil))
	}

	f.Fuzz(func(t *testing.T, data, samples []byte) {
		m, err := store.ParseManifest(data) // must never panic
		if err != nil {
			if !errors.Is(err, store.ErrManifestCorrupt) && !errors.Is(err, store.ErrManifestVersion) {
				t.Fatalf("untyped parse error: %v", err)
			}
			return
		}
		// Accepted manifests are stable: re-marshal, re-parse, same identity.
		out, err := json.Marshal(m)
		if err != nil {
			t.Fatalf("accepted manifest does not re-marshal: %v", err)
		}
		m2, err := store.ParseManifest(out)
		if err != nil {
			t.Fatalf("re-marshaled manifest rejected: %v", err)
		}
		if m2.Name != m.Name || m2.TotalValues != m.TotalValues || len(m2.Chunks) != len(m.Chunks) ||
			m2.ContainerHash != m.ContainerHash {
			t.Fatalf("round trip changed identity: %+v vs %+v", m2, m)
		}
		if (m.Residual == nil) != (m2.Residual == nil) ||
			(m.Residual != nil && *m2.Residual != *m.Residual) {
			t.Fatalf("round trip changed residual record: %+v vs %+v", m2.Residual, m.Residual)
		}

		// The sidecar loader: the pair joins into the wire form or fails typed.
		full, err := store.JoinProfile(m, samples)
		if err != nil {
			if !errors.Is(err, store.ErrCorruptDataset) {
				t.Fatalf("untyped join error: %v", err)
			}
			return
		}
		wire, err := json.Marshal(full)
		if err != nil {
			t.Fatal(err)
		}
		back, err := store.ParseManifest(wire)
		if err != nil || back.Version != store.WireVersion {
			t.Fatalf("joined wire form does not parse as version %d: %v", store.WireVersion, err)
		}
		h, sc, err := store.SplitProfile(back)
		if err != nil || (sc == nil) != (m.Profile == nil) {
			t.Fatalf("wire form does not split back: %v", err)
		}
		if m.Version == store.ManifestVersion && m.Profile != nil &&
			(!bytes.Equal(sc, samples) || *h.ProfileSamples != *m.ProfileSamples || !reflect.DeepEqual(h.Profile, m.Profile)) {
			t.Fatalf("joined pair does not split back to itself: %+v vs %+v", h.ProfileSamples, m.ProfileSamples)
		}
		// A present profile must either rebuild or fail typed.
		if full.Profile != nil {
			if _, err := full.RQProfile(); err != nil && !errors.Is(err, store.ErrManifestCorrupt) {
				t.Fatalf("untyped profile rebuild error: %v", err)
			}
		}
	})
}

// validHead splits a valid version-1 manifest into the version-2 head and
// sidecar a store commits for it.
func validHead(t testing.TB, wire []byte) ([]byte, []byte) {
	t.Helper()
	m, err := store.ParseManifest(wire)
	if err != nil {
		t.Fatal(err)
	}
	head, samples, err := store.SplitProfile(m)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(head)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.ParseManifest(data); err != nil {
		t.Fatalf("seed head does not parse: %v", err)
	}
	return data, samples
}

func hashOf(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}
