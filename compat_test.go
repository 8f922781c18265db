package rqm_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"rqm"
	"rqm/internal/grid"
	"rqm/internal/residual"
	"rqm/internal/service"
	"rqm/internal/store"
)

// kind is a fixture's wire form.
type kind int

const (
	envelope kind = iota // RQCE version 1: one sealed native payload
	chunked              // RQCE version 2: a chunked stream
	resid                // RQRS: a residual file
	manifest             // a store manifest
	dataset              // a store dataset directory; its data.rqz is a chunked stream
	rawPut               // a raw-put frame: [BE length][manifest][container]
)

// fixtures is the compatibility table: one row per archived file, with its path, kind, the SHA-256 of the bytes the
// byte readers get (data.rqz, for a dataset), and what those decode to: the SHA-256 of the decoded float64 bits, of
// the block bytes for a residual, and a manifest's profile answers.
var fixtures = []struct {
	path        string
	kind        kind
	file, value string
}{
	// SpectralField("compat", f64, 64×64×16) at ABS 1e-3 by the last container-version-1 build: envelope, stream.
	{"testdata/pre_pr7_envelope.rqz", envelope, "2e5c9d4a50e715f393d616809030b19bfd028f488093c67bb67ad7bd85230aeb", "95fb642ffa3d7620feeced52a5303f61e6b0f2d833c282931644d05440881616"},
	{"testdata/pre_pr7_chunked.rqz", chunked, "6cac6dd69537885a3edc8a05f71b78b8555f219f0f30823c8b05bfd7e7ce13fb", "994534ffbdb3c4bf7d53c6526f72359828677f9c40a50da0e8a7e01d0b31bab1"},
	// 32×32×4 f64 with outliers (ABS 1e-3) at radius 255 and 2^20+1, by the last build that let a caller pick one.
	{"testdata/pre_pr26_radius_255.rqz", envelope, "599e88624c9d4d5dbe9e453f9b4914f041b6b46899b9577f6fd7d0965c7c8be7", "7ffbe6b9d9741b0829ee2f6a9e2a3f484d0ddf264d397f36bd03f64f19ed8719"},
	{"testdata/pre_pr26_radius_1048577.rqz", envelope, "601a65204d558266f86c093263ca3424ca82133f163931136586316c76db5c2d", "018bb3839b1a01526539af9ef483751b6ce208cc7e67218feca23ee17f349764"},
	// rqc compress -codec transform -mode rel -eb 1e-3: tiny nyx_temperature (24³ f32), exafel_raw (-stream -chunk 1024).
	{"testdata/pre_pr28_transform.rqz", envelope, "59cbcad8d4509e89b02b519b1ec22010d71885fe2477b02e6a3dd8c16e57f408", "cdc35d9a166c0a6d0b4892bca7a85ac1b69f4e475f51b676e1100362434802ea"},
	{"testdata/pre_pr28_transform_chunked.rqz", chunked, "b656bc151ed8304f052788b2a2abe64832f2db87498ee16dec784f955ac45a05", "184ea26e4b9b0e491293c8b48c04da241960e98c2329d431de8fb627e187b770"},
	// internal/residual's five-block goldens: one residual per precision, coded by each backend.
	{"internal/residual/testdata/pre_pr20_f32_ans.rqr", resid, "7cd5cc04e1f8f84553aea5cb609466d85be69a15385559fda8d6c946f491888c", "44e56dff7bfc0321303c1b86f7e708b0079eba52fe5deccd9b89b37f3a9be7fb"},
	{"internal/residual/testdata/pre_pr20_f32_huffman.rqr", resid, "3febf603a83f2f7285445d33554102d0597245d61873280fcf73df7ca84f2845", "44e56dff7bfc0321303c1b86f7e708b0079eba52fe5deccd9b89b37f3a9be7fb"},
	{"internal/residual/testdata/pre_pr20_f32_lz77.rqr", resid, "f7a4cfa54d866dcfeacb637b965a7083b8fbaa3138270aaeed95970694493eaf", "44e56dff7bfc0321303c1b86f7e708b0079eba52fe5deccd9b89b37f3a9be7fb"},
	{"internal/residual/testdata/pre_pr20_f64_ans.rqr", resid, "cca1cd89680e73c23ea76fcad95486b6faf0d9521e442c565c7c96d1531de95f", "8b48725fa965b9fe7c8b01ccd2cb15b5ef66fb73a975d55335b0ee4e461251fd"},
	{"internal/residual/testdata/pre_pr20_f64_huffman.rqr", resid, "954a96ae712a5ca239358042b03a7581fafbabfad0107ff44b8588ddac74b6c4", "8b48725fa965b9fe7c8b01ccd2cb15b5ef66fb73a975d55335b0ee4e461251fd"},
	{"internal/residual/testdata/pre_pr20_f64_lz77.rqr", resid, "3a16cd5e9f5de727523645338148d07fd1e60684e268d2f30bab7cf21a7121d4", "8b48725fa965b9fe7c8b01ccd2cb15b5ef66fb73a975d55335b0ee4e461251fd"},
	// Written before the profile record named its pipeline (prediction-tans, rle); rqserved's answers from it.
	{"internal/store/testdata/pre_pr18_manifest.json", manifest, "70786dd347b497cce503ea8f7d42a842bf18637cb119c797924df0d850f3b3b5",
		"[0x401b3b3808077fca 0x4012cd47d0293fac 0x4050320b5c175ea2 0x3feffff429416dd4 0x4024c4b1ffd61002 0x3fe52af8e7637c53]"},
	// A version-1 dataset (64×64 f32, mode=rel&eb=1e-3&chunk=1024) and a router's raw-put frame of it: see served.
	{"internal/store/testdata/pre_pr30_dataset", dataset, "8c0cafbda49fd1e0c9d3aef699fe376701fc94310be2c902a04f87ae8a9114a4", "b3c32f8ca8bc442db751625621452e77245297424c715940a6fe96a324874ed7"},
	{"internal/store/testdata/pre_pr30_raw_put.bin", rawPut, "ce5b38a7822d7ecd3f22933c44975a59097ad525e405c8ae7365ded4daf85826", ""},
}

// served hashes what the writer's rqserved answered for the pre_pr30 dataset:
// stat, full (wire) manifest, list, slice, GET, recompaction, and the reads after it.
var served = []struct{ method, path, sum string }{
	{"GET", "/v1/datasets/legacy?manifest=1", "43f8c82e16f8bcb8fd498b86881879fd64bdc5618f4fd96a7646570dd87ee6ba"},
	{"GET", "/v1/datasets/legacy?manifest=1&full=1", "d980f2cdde6574c2a7eb03ef2265bb4df3044ed27ca348d2d127de16635286db"},
	{"GET", "/v1/datasets", "489b8c182e1a9fae485c222c679f33a84cb59e0e5c416e680c86011a201afc19"},
	{"GET", "/v1/datasets/legacy/slice?off=1000&len=300", "e470750cbd1b7b4ca544b3517e04cf47ba89c35f90a5c3dbe0fa4ba5e21d4fa5"},
	{"GET", "/v1/datasets/legacy", "e2b2fb018b751e41df2028845412dcd2a8feb844f3d385e7f50140ecbbf19756"},
	{"POST", "/v1/datasets/legacy/recompact?target-psnr=55", "942246ac85a376e2e39b937c73d580d4d6a11822a54a51e105c661dfe19c383b"},
	{"GET", "/v1/datasets/legacy?manifest=1", "9adb60155e5cd8f27fe4bf01405d9ceee1e929a496003545be3369c12090d5a8"},
	{"GET", "/v1/datasets/legacy?manifest=1&full=1", "ca33ce66457a6b38f6d5207c328124e4ef2c62c525c7bd70ca8804fd9716a867"},
	{"GET", "/v1/datasets/legacy/slice?off=1000&len=300", "ef224552610505a18325fafdd2330ce2dcc50d323c3b3df0c12fed29d25ed5a9"},
	{"GET", "/v1/datasets/legacy", "4eb72e9561463c4145b82c4bcc3a8f91ba22844be67f0da301ea31165e9ed894"},
}

// httpError is a refusal over HTTP: its status and error code.
type httpError string

func (e httpError) Error() string { return string(e) }

// TestArchivedFixtures sends every row through every byte reader, then the readers of its kind: each must reproduce
// what the row decodes to, or refuse it with the typed error pinned here. A new or retired wire form is one row, its
// fixture committed at the parent; the guard fails on a fixture with no row or a row with no fixture.
func TestArchivedFixtures(t *testing.T) {
	inPkgs, _ := filepath.Glob("internal/*/testdata/pre_pr*") // the patterns are well formed
	atRoot, _ := filepath.Glob("testdata/pre_pr*")
	onDisk := append(inPkgs, atRoot...) // sorted, as internal/ < testdata/
	var rows []string
	for _, fx := range fixtures {
		rows = append(rows, fx.path)
	}
	if slices.Sort(rows); !slices.Equal(onDisk, rows) {
		t.Fatalf("fixtures and rows differ:\n fixtures %q\n rows     %q", onDisk, rows)
	}
	checkRows(t, "")
}

// TestPrePR7ContainersDecodeByteIdentically holds the last container-version-1 build's envelope and stream to their rows.
func TestPrePR7ContainersDecodeByteIdentically(t *testing.T) { checkRows(t, "testdata/pre_pr7_") }

// TestRadiusContainersDecodeByteIdentically holds the containers written at a caller-picked radius to their rows.
func TestRadiusContainersDecodeByteIdentically(t *testing.T) {
	checkRows(t, "testdata/pre_pr26_radius_")
}

// TestTransformContainersDecodeByteIdentically holds the transform codec's envelope and stream to their rows.
func TestTransformContainersDecodeByteIdentically(t *testing.T) {
	checkRows(t, "testdata/pre_pr28_transform")
}

// checkRows sends every row whose path starts with prefix through every byte reader, then the readers of its kind,
// one subtest per row: each must reproduce what the row decodes to, or refuse it with the typed error pinned here.
func checkRows(t *testing.T, prefix string) {
	t.Helper()
	_, srv := serve(t, t.TempDir())
	notContainer := refuse(rqm.ErrBadMagic, resid, manifest, rawPut)
	notIndexed := refuse(rqm.ErrBadMagic, resid, manifest, rawPut) // an envelope has no index
	notIndexed[envelope] = rqm.ErrUnsupportedVersion
	readers := []struct {
		name    string
		refuses map[kind]error
		// out is what the reader returns, so what it is held to: "value", the row's; "rqmf", a .rqmf written at
		// the field's storage precision, so the one rqm.Decompress's field writes; "shape", the one it decodes.
		out  string
		read func([]byte) (string, error)
	}{
		{"rqm.Decompress", notContainer, "value", func(b []byte) (string, error) { return digest(rqm.Decompress(b)) }},
		{"rqm.Inspect", notContainer, "shape", func(b []byte) (string, error) {
			info, err := rqm.Inspect(b)
			if err != nil {
				return "", err
			}
			return fmt.Sprint(info.Dims), nil
		}},
		{"NewReader(1).ReadAll", notContainer, "value", readStream(1, false)},
		{"NewReader(4).ReadAll", notContainer, "value", readStream(4, false)},
		{"NewReader(1).WriteField", notContainer, "rqmf", readStream(1, true)},
		{"NewReader(4).WriteField", notContainer, "rqmf", readStream(4, true)},
		{"ReadStreamChunk, shuffled", notIndexed, "value", readShuffled},
		{"POST /v1/decompress", refuse(httpError("422 bad_magic"), resid, manifest, rawPut), "rqmf", func(b []byte) (string, error) {
			body, err := send(srv.URL, "POST", "/v1/decompress", b, http.StatusOK)
			return sha(body), err
		}},
		{"residual blocks", refuse(residual.ErrBadMagic, envelope, chunked, manifest, rawPut), "value", readResidual},
		{"store.ParseManifest", refuse(store.ErrManifestCorrupt, envelope, chunked, resid, rawPut), "value", readManifest},
	}

	ran := 0
	for _, fx := range fixtures {
		if !strings.HasPrefix(fx.path, prefix) {
			continue
		}
		ran++
		t.Run(filepath.Base(fx.path), func(t *testing.T) {
			path, form := fx.path, fx.kind
			if form == dataset {
				path, form = filepath.Join(path, store.ContainerFile), chunked
			}
			blob, err := os.ReadFile(path)
			if got := sha(blob); err != nil || got != fx.file {
				t.Fatalf("file hashes to %s (%v), want %s", got, err, fx.file)
			}
			want := map[string]string{"value": fx.value}
			if f, err := rqm.Decompress(blob); err == nil {
				var buf bytes.Buffer
				_, _ = f.WriteTo(&buf) // a bytes.Buffer write cannot fail
				want["rqmf"], want["shape"] = sha(buf.Bytes()), fmt.Sprint(f.Dims)
			}
			for _, rd := range readers {
				got, err := rd.read(blob)
				switch refusal := rd.refuses[form]; {
				case refusal != nil && !errors.Is(err, refusal):
					t.Errorf("%s: error %v, want %v", rd.name, err, refusal)
				case refusal == nil && err != nil:
					t.Errorf("%s: %v", rd.name, err)
				case refusal == nil && got != want[rd.out]:
					t.Errorf("%s: reads %s, want %s", rd.name, got, want[rd.out])
				}
			}
			switch root := t.TempDir(); fx.kind {
			case chunked:
				checkStored(t, blob, want["rqmf"])
			case dataset:
				if err := os.CopyFS(filepath.Join(root, "datasets", "legacy"), os.DirFS(fx.path)); err != nil {
					t.Fatal(err)
				}
				checkServed(t, root, nil)
			case rawPut:
				checkServed(t, root, blob)
			}
		})
	}
	if ran == 0 {
		t.Fatalf("no row starts with %q", prefix)
	}
}

// checkStored raw-puts a chunked container onto a test store in a version-1 frame whose manifest is derived from
// its index (no profile). A GET must answer the .rqmf hashing to rqmfSum, a slice across the first chunk boundary
// the same values, and a deep verify must pass.
func checkStored(t *testing.T, blob []byte, rqmfSum string) {
	idx, err := rqm.ReadStreamIndex(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	prec := idx.Header.Prec.Bits()
	m := store.Manifest{Version: store.WireVersion, Name: "c", PrecBits: prec, Dims: idx.Header.Dims, Mode: "abs",
		ErrorBound: idx.Entries[0].AbsBound, TotalValues: idx.TotalValues,
		OriginalBytes: idx.TotalValues * int64(prec/8), ContainerBytes: int64(len(blob))}
	for _, e := range idx.Entries {
		m.Chunks = append(m.Chunks, store.ChunkRecord(e))
	}
	man, _ := json.Marshal(m) // a Manifest always marshals
	st, ts := serve(t, t.TempDir())
	frame := append(binary.BigEndian.AppendUint32(nil, uint32(len(man))), man...)
	if _, err := send(ts.URL, "POST", "/v1/datasets/c/raw", append(frame, blob...), http.StatusCreated); err != nil {
		t.Fatal(err)
	}
	body, err := send(ts.URL, "GET", "/v1/datasets/c", nil, http.StatusOK)
	if err != nil || sha(body) != rqmfSum {
		t.Fatalf("GET answers a body hashing to %s (%v), want %s", sha(body), err, rqmfSum)
	}
	whole, _ := grid.ReadFrom(bytes.NewReader(body)) // it is rqm.Decompress's .rqmf
	off := idx.Entries[0].Values - 5
	body, err = send(ts.URL, "GET", fmt.Sprintf("/v1/datasets/c/slice?off=%d&len=10", off), nil, http.StatusOK)
	if slice, perr := grid.ReadFrom(bytes.NewReader(body)); err != nil || perr != nil || !slices.Equal(slice.Data, whole.Data[off:off+10]) {
		t.Errorf("slice across the first chunk boundary (%v, %v): want %v", err, perr, whole.Data[off:off+10])
	}
	if err := st.VerifyDataset("c", true); err != nil {
		t.Error(err)
	}
}

// checkServed serves a store at root, raw-puts frame onto it when given (201 stored, then 200 skipped as held),
// and walks served, deep-verifying the dataset after every step.
func checkServed(t *testing.T, root string, frame []byte) {
	st, ts := serve(t, root)
	for i := 0; frame != nil && i < 2; i++ {
		if _, err := send(ts.URL, "POST", "/v1/datasets/legacy/raw", frame, []int{201, 200}[i]); err != nil {
			t.Fatalf("raw put %d: %v", i+1, err)
		}
	}
	for _, s := range served {
		body, err := send(ts.URL, s.method, s.path, nil, http.StatusOK)
		if got := sha(body); err != nil || got != s.sum {
			t.Errorf("%s %s: %v, body hashes to %s, the writer answered %s", s.method, s.path, err, got, s.sum)
		}
		if err := st.VerifyDataset("legacy", true); err != nil {
			t.Fatalf("after %s %s: deep verify: %v", s.method, s.path, err)
		}
	}
}

// readStream decodes through the concurrent stream reader, into a field or as a .rqmf; draining closes it.
func readStream(workers int, asRQMF bool) func([]byte) (string, error) {
	return func(b []byte) (string, error) {
		r, err := rqm.NewReader(bytes.NewReader(b), rqm.WithStreamReaderWorkers(workers))
		var buf bytes.Buffer
		switch {
		case err != nil:
			return "", err
		case asRQMF:
			_, err = r.WriteField(&buf)
			return sha(buf.Bytes()), err
		}
		return digest(r.ReadAll())
	}
}

// readShuffled decodes a chunked container through its index, one chunk at a time in a shuffled order.
func readShuffled(b []byte) (string, error) {
	rs := bytes.NewReader(b)
	idx, err := rqm.ReadStreamIndex(rs)
	if err != nil {
		return "", err
	}
	chunks := make([][]float64, len(idx.Entries))
	for _, i := range rand.New(rand.NewSource(1)).Perm(len(chunks)) {
		if chunks[i], err = rqm.ReadStreamChunk(rs, idx.Entries[i]); err != nil {
			return "", err
		}
	}
	return digest(&rqm.Field{Data: slices.Concat(chunks...)}, nil)
}

// readResidual loads a residual file's index, then reads and deep-verifies every block.
func readResidual(b []byte) (string, error) {
	rs := bytes.NewReader(b)
	idx, err := residual.LoadIndex(rs)
	if err != nil {
		return "", err
	}
	var blocks []byte
	for _, e := range idx.Blocks {
		block, err := residual.ReadBlock(rs, idx.Header, e)
		if err == nil {
			err = residual.VerifyBlock(rs, idx.Header, e, true)
		}
		if err != nil {
			return "", err
		}
		blocks = append(blocks, block...)
	}
	return sha(blocks), nil
}

// readManifest parses a manifest and answers from its profile: the estimate at its bound, the bounds for ratio 20 and PSNR 50.
func readManifest(b []byte) (string, error) {
	m, err := store.ParseManifest(b)
	if err != nil {
		return "", err
	}
	p, err := m.RQProfile()
	if err != nil {
		return "", err
	}
	est := p.EstimateAt(m.ErrorBound * p.Range)
	forRatio, rerr := p.ErrorBoundForRatio(20)
	forPSNR, perr := p.ErrorBoundForPSNR(50)
	bits := []uint64{math.Float64bits(est.TotalBitRate), math.Float64bits(est.Ratio), math.Float64bits(est.PSNR),
		math.Float64bits(est.SSIM), math.Float64bits(forRatio), math.Float64bits(forPSNR)}
	return fmt.Sprintf("%#x", bits), errors.Join(rerr, perr)
}

// refuse maps each of kinds to err.
func refuse(err error, kinds ...kind) map[kind]error {
	m := map[kind]error{}
	for _, k := range kinds {
		m[k] = err
	}
	return m
}

// digest hashes a decoded field's values as little-endian float64 bits.
func digest(f *rqm.Field, err error) (string, error) {
	if err != nil {
		return "", err
	}
	h := sha256.New()
	_ = binary.Write(h, binary.LittleEndian, f.Data) // a hash write cannot fail
	return fmt.Sprintf("%x", h.Sum(nil)), nil
}

func sha(b []byte) string { return fmt.Sprintf("%x", sha256.Sum256(b)) }

// serve opens a store at root behind a test rqserved.
func serve(t *testing.T, root string) (*store.Store, *httptest.Server) {
	st, err := store.Open(root)
	svc, serr := service.New(service.Config{Store: st})
	if err := errors.Join(err, serr); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc)
	t.Cleanup(ts.Close)
	return st, ts
}

// send makes one request and returns the body if it answers status; any other answer is an httpError.
func send(base, method, path string, body []byte, status int) ([]byte, error) {
	req, _ := http.NewRequest(method, base+path, bytes.NewReader(body)) // the method and URL are well formed
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode == status {
		return b, err
	}
	var eb service.ErrorBody
	_ = json.Unmarshal(b, &eb) // a body that is no envelope leaves the code empty
	return nil, httpError(fmt.Sprintf("%d %s", resp.StatusCode, eb.Error.Code))
}
