package store_test

import (
	"encoding/json"
	"errors"
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
		Version:        store.ManifestVersion,
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

// FuzzManifest hammers ParseManifest with valid, truncated, and
// field-corrupted manifests: malformed input must yield a typed error
// (ErrManifestCorrupt / ErrManifestVersion), never a panic, and anything
// accepted must survive a marshal/parse round trip.
func FuzzManifest(f *testing.F) {
	valid := validManifestJSON(f)
	f.Add(valid)
	// Truncations at several depths.
	for _, frac := range []int{2, 3, 10} {
		f.Add(valid[:len(valid)/frac])
	}
	// Field corruptions: wrong version, negative counts, bad base64, rank
	// overflow, inconsistent chunk index, bad predictor, NaN-smuggling.
	f.Add([]byte(`{}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(`{"version":99,"name":"x"}`))
	f.Add([]byte(strings.Replace(string(valid), `"version":1`, `"version":2`, 1)))
	f.Add([]byte(strings.Replace(string(valid), `"total_values":512`, `"total_values":-1`, 1)))
	f.Add([]byte(strings.Replace(string(valid), `"dims":[512]`, `"dims":[1,1,1,1,1]`, 1)))
	f.Add([]byte(strings.Replace(string(valid), `"dims":[512]`, `"dims":[0]`, 1)))
	f.Add([]byte(strings.Replace(string(valid), `"name":"fuzz-seed"`, `"name":"../escape"`, 1)))
	f.Add([]byte(strings.Replace(string(valid), `"predictor":"lorenzo"`, `"predictor":"warp-drive"`, 1)))
	f.Add([]byte(strings.Replace(string(valid), `"mode":"abs"`, `"mode":"pwrel"`, 1)))
	f.Add([]byte(strings.Replace(string(valid), `"mode":"abs"`, `"mode":"abs","lossless":"zpaq"`, 1)))
	f.Add([]byte(strings.Replace(string(valid), `"errors_b64":"`, `"errors_b64":"!!!`, 1)))
	f.Add([]byte(strings.Replace(string(valid), `"prec_bits":64`, `"prec_bits":48`, 1)))
	// Container-hash variants: valid, non-hex, wrong length. The scrubber
	// trusts this field as its deep reference, so a parse must either accept
	// a well-formed digest or reject typed — never let junk through.
	f.Add([]byte(strings.Replace(string(valid), `"name":"fuzz-seed"`,
		`"name":"fuzz-seed","container_hash":"`+strings.Repeat("ab", 32)+`"`, 1)))
	f.Add([]byte(strings.Replace(string(valid), `"name":"fuzz-seed"`,
		`"name":"fuzz-seed","container_hash":"`+strings.Repeat("zz", 32)+`"`, 1)))
	f.Add([]byte(strings.Replace(string(valid), `"name":"fuzz-seed"`,
		`"name":"fuzz-seed","container_hash":"abcd"`, 1)))
	// Residual-section variants: a valid record, an unknown backend, a
	// malformed hash, non-positive byte counts, and a truncated section. A
	// malformed record must reject typed — the exact-read path trusts these
	// fields as its integrity reference.
	resOK := `"residual":{"backend":"ans","bytes":2048,"hash":"` + strings.Repeat("ef", 32) +
		`","original_hash":"` + strings.Repeat("01", 32) + `"}`
	f.Add([]byte(strings.Replace(string(valid), `"name":"fuzz-seed"`,
		`"name":"fuzz-seed",`+resOK, 1)))
	f.Add([]byte(strings.Replace(string(valid), `"name":"fuzz-seed"`,
		`"name":"fuzz-seed",`+strings.Replace(resOK, `"ans"`, `"warp-drive"`, 1), 1)))
	f.Add([]byte(strings.Replace(string(valid), `"name":"fuzz-seed"`,
		`"name":"fuzz-seed",`+strings.Replace(resOK, strings.Repeat("ef", 32), "zz", 1), 1)))
	f.Add([]byte(strings.Replace(string(valid), `"name":"fuzz-seed"`,
		`"name":"fuzz-seed",`+strings.Replace(resOK, `"bytes":2048`, `"bytes":0`, 1), 1)))
	f.Add([]byte(strings.Replace(string(valid), `"name":"fuzz-seed"`,
		`"name":"fuzz-seed",`+resOK[:len(resOK)/2], 1)))

	f.Fuzz(func(t *testing.T, data []byte) {
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
		// A present profile must either rebuild or fail typed.
		if m.Profile != nil {
			if _, err := m.RQProfile(); err != nil && !errors.Is(err, store.ErrManifestCorrupt) {
				t.Fatalf("untyped profile rebuild error: %v", err)
			}
		}
	})
}
