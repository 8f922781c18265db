package rqm_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"os"
	"testing"

	"rqm"
)

// The two containers under testdata/ were written by the build immediately
// before the entropy-stage change (serial Huffman, container version 1) from
// datagen.SpectralField("compat", float64, 64×64×16, decay -1.5, eb ABS 1e-3):
// one whole-buffer envelope and one chunked stream (16384-value chunks, 2
// workers). The hashes pin the exact decoded float64 stream, so any change to
// legacy decode paths — container parse, codebook handling, kernel order of
// operations — fails loudly here, not in an archive three years from now.
const (
	compatEnvelopeSHA = "95fb642ffa3d7620feeced52a5303f61e6b0f2d833c282931644d05440881616"
	compatChunkedSHA  = "994534ffbdb3c4bf7d53c6526f72359828677f9c40a50da0e8a7e01d0b31bab1"
	compatLen         = 64 * 64 * 16
)

func decodedSHA(f *rqm.Field) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range f.Data {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestPrePR7ContainersDecodeByteIdentically is the backward-compatibility
// gate for the entropy-stage work: containers written before the version 2
// container and the new codec IDs existed must keep decoding to the exact
// same values through every read path.
func TestPrePR7ContainersDecodeByteIdentically(t *testing.T) {
	cases := []struct {
		file, want string
	}{
		{"testdata/pre_pr7_envelope.rqz", compatEnvelopeSHA},
		{"testdata/pre_pr7_chunked.rqz", compatChunkedSHA},
	}
	for _, tc := range cases {
		blob, err := os.ReadFile(tc.file)
		if err != nil {
			t.Fatalf("golden container missing: %v", err)
		}
		f, err := rqm.Decompress(blob)
		if err != nil {
			t.Fatalf("%s: %v", tc.file, err)
		}
		if f.Len() != compatLen {
			t.Fatalf("%s: decoded %d values, want %d", tc.file, f.Len(), compatLen)
		}
		if got := decodedSHA(f); got != tc.want {
			t.Errorf("%s: decoded stream hash %s, want %s", tc.file, got, tc.want)
		}
	}

	// The chunked container must also decode identically through the
	// concurrent streaming reader.
	blob, err := os.ReadFile("testdata/pre_pr7_chunked.rqz")
	if err != nil {
		t.Fatal(err)
	}
	r, err := rqm.NewReader(bytes.NewReader(blob), rqm.WithStreamReaderWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	f, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if got := decodedSHA(f); got != compatChunkedSHA {
		t.Errorf("streaming reader: decoded stream hash %s, want %s", got, compatChunkedSHA)
	}
}

// The two radius containers under testdata/ were written by the last build
// that let a caller choose the quantizer radius, from a 32×32×4 float64
// field with outliers (ABS 1e-3, Lorenzo): one at radius 255, one at radius
// 2^20+1 (the sparse compress path that build took above 2^20). Compression
// now always uses the default radius, but a container records its own, so
// both must keep decoding to the exact same values. Each row pins the file
// and the decoded float64 stream.
func TestRadiusContainersDecodeByteIdentically(t *testing.T) {
	cases := []struct {
		file, fileSHA, want string
	}{
		{"testdata/pre_pr26_radius_255.rqz",
			"599e88624c9d4d5dbe9e453f9b4914f041b6b46899b9577f6fd7d0965c7c8be7",
			"7ffbe6b9d9741b0829ee2f6a9e2a3f484d0ddf264d397f36bd03f64f19ed8719"},
		{"testdata/pre_pr26_radius_1048577.rqz",
			"601a65204d558266f86c093263ca3424ca82133f163931136586316c76db5c2d",
			"018bb3839b1a01526539af9ef483751b6ce208cc7e67218feca23ee17f349764"},
	}
	eng, err := rqm.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		blob, err := os.ReadFile(tc.file)
		if err != nil {
			t.Fatalf("golden container missing: %v", err)
		}
		if sum := sha256.Sum256(blob); hex.EncodeToString(sum[:]) != tc.fileSHA {
			t.Fatalf("%s: file hash %x, want %s", tc.file, sum, tc.fileSHA)
		}
		for name, decode := range map[string]func([]byte) (*rqm.Field, error){
			"rqm.Decompress":    rqm.Decompress,
			"Engine.Decompress": eng.Decompress,
		} {
			f, err := decode(blob)
			if err != nil {
				t.Fatalf("%s via %s: %v", tc.file, name, err)
			}
			if f.Len() != 32*32*4 {
				t.Fatalf("%s via %s: decoded %d values, want %d", tc.file, name, f.Len(), 32*32*4)
			}
			if got := decodedSHA(f); got != tc.want {
				t.Errorf("%s via %s: decoded stream hash %s, want %s", tc.file, name, got, tc.want)
			}
		}
	}
}

// The two transform containers under testdata/ were written by `rqc compress
// -codec transform -mode rel -eb 1e-3` from datagen's tiny fields (seed 42):
// an envelope of nyx_temperature (24³ float32) and a chunked stream of
// exafel_raw (2×4×16×32 float32, -stream -chunk 1024 -workers 2). Each row
// pins the file and the decoded float64 stream through every read path, so
// a change to the transform codec's tiling, parse or inverse transform that
// moves one value fails here.
func TestTransformContainersDecodeByteIdentically(t *testing.T) {
	cases := []struct {
		file, fileSHA, want string
		n                   int
		chunked             bool
	}{
		{"testdata/pre_pr28_transform.rqz",
			"59cbcad8d4509e89b02b519b1ec22010d71885fe2477b02e6a3dd8c16e57f408",
			"cdc35d9a166c0a6d0b4892bca7a85ac1b69f4e475f51b676e1100362434802ea",
			24 * 24 * 24, false},
		{"testdata/pre_pr28_transform_chunked.rqz",
			"b656bc151ed8304f052788b2a2abe64832f2db87498ee16dec784f955ac45a05",
			"184ea26e4b9b0e491293c8b48c04da241960e98c2329d431de8fb627e187b770",
			2 * 4 * 16 * 32, true},
	}
	eng, err := rqm.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		blob, err := os.ReadFile(tc.file)
		if err != nil {
			t.Fatalf("golden container missing: %v", err)
		}
		if sum := sha256.Sum256(blob); hex.EncodeToString(sum[:]) != tc.fileSHA {
			t.Fatalf("%s: file hash %x, want %s", tc.file, sum, tc.fileSHA)
		}
		decoders := map[string]func([]byte) (*rqm.Field, error){
			"rqm.Decompress":    rqm.Decompress,
			"Engine.Decompress": eng.Decompress,
		}
		if tc.chunked {
			decoders["rqm.NewReader"] = func(b []byte) (*rqm.Field, error) {
				r, err := rqm.NewReader(bytes.NewReader(b), rqm.WithStreamReaderWorkers(2))
				if err != nil {
					return nil, err
				}
				return r.ReadAll()
			}
		}
		for name, decode := range decoders {
			f, err := decode(blob)
			if err != nil {
				t.Fatalf("%s via %s: %v", tc.file, name, err)
			}
			if f.Len() != tc.n {
				t.Fatalf("%s via %s: decoded %d values, want %d", tc.file, name, f.Len(), tc.n)
			}
			if got := decodedSHA(f); got != tc.want {
				t.Errorf("%s via %s: decoded stream hash %s, want %s", tc.file, name, got, tc.want)
			}
		}
	}
}
