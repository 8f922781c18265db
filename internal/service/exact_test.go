package service

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"strconv"
	"testing"
	"time"

	"rqm"
	"rqm/internal/faultfs"
	"rqm/internal/grid"
	"rqm/internal/residual"
	"rqm/internal/store"
)

// specialField is the .rqmf body of a 1-D field of n smooth values at prec
// with the given storage bit patterns written over its first values.
func specialField(prec grid.Precision, n int, specials []uint64) []byte {
	var b bytes.Buffer
	if _, err := grid.WriteHeader(&b, prec, []int{n}); err != nil {
		panic(err)
	}
	out := b.Bytes()
	for i := 0; i < n; i++ {
		v := math.Sin(float64(i)/37) + 0.25*math.Cos(float64(i)/11)
		if prec == grid.Float32 {
			bits := uint64(math.Float32bits(float32(v)))
			if i < len(specials) {
				bits = specials[i]
			}
			out = binary.LittleEndian.AppendUint32(out, uint32(bits))
			continue
		}
		bits := math.Float64bits(v)
		if i < len(specials) {
			bits = specials[i]
		}
		out = binary.LittleEndian.AppendUint64(out, bits)
	}
	return out
}

// putExact commits the .rqmf body as an exact dataset of chunk-value chunks,
// at an ABS bound, straight through the store: a put request records the
// field's value range, which a non-finite value leaves undefined. The body
// is parsed by grid.ReadFrom, as a put's is.
func putExact(t *testing.T, st *store.Store, name string, body []byte, chunk int) {
	t.Helper()
	f, err := grid.ReadFrom(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := rqm.NewEngine(rqm.WithMode(rqm.ABS), rqm.WithErrorBound(1e-3))
	if err != nil {
		t.Fatal(err)
	}
	man := &store.Manifest{
		CreatedAt: time.Now().UTC(), PrecBits: f.Prec.Bits(), Dims: f.Dims,
		Codec: eng.Codec().Name(), Mode: "abs", ErrorBound: 1e-3, OriginalBytes: int64(len(body)),
	}
	if _, err := st.PutWithResidual(name, func(w io.Writer) (*store.Manifest, error) {
		sw, err := eng.NewStreamWriter(w, rqm.WithStreamShape(f.Prec, f.Dims...), rqm.WithChunkSize(chunk))
		if err != nil {
			return nil, err
		}
		if err := sw.WriteValues(f.Data); err != nil {
			return nil, err
		}
		return man, sw.Close()
	}, store.BuildResidual(f.Data, f.Prec, residual.DefaultBackend)); err != nil {
		t.Fatal(err)
	}
}

// TestExactGetSameBytes: GET ?exact=1 answers, with a Content-Length equal
// to its body, exactly the bytes of the composition it replaced —
// ReadRangeExact's values through grid.FromData and WriteTo — on f32 and f64
// datasets of several chunks and a short last one, with NaN payloads, ±Inf,
// −0 and subnormals. Those bytes are the upload's, except a float32
// signaling NaN, which grid.ReadFrom quiets at put: "exact" is the stored
// pattern, 0x7f800001 served as 0x7fc00001.
func TestExactGetSameBytes(t *testing.T) {
	_, st, ts := newStoreServer(t)
	const n = 3*1000 + 437
	for _, tc := range []struct {
		name     string
		prec     grid.Precision
		specials []uint64
	}{
		{"f32", grid.Float32, []uint64{
			0x7fc00123, 0xffc00001, 0x7f800000, 0xff800000, 0x80000000, 0x00000001, 0x807fffff, 0x7f800001,
		}},
		{"f64", grid.Float64, []uint64{
			0x7ff8000000000123, 0xfff8000000000001, 0x7ff0000000000000, 0xfff0000000000000,
			0x8000000000000000, 0x0000000000000001, 0x800fffffffffffff, 0x7ff0000000000001,
		}},
	} {
		body := specialField(tc.prec, n, tc.specials)
		putExact(t, st, tc.name, body, 1000)
		status, got, hdr := getBody(t, ts, "/v1/datasets/"+tc.name+"?exact=1")
		if status != http.StatusOK {
			t.Fatalf("%s: exact get status %d: %s", tc.name, status, got)
		}
		if cl := hdr.Get("Content-Length"); cl != strconv.Itoa(len(got)) {
			t.Fatalf("%s: Content-Length %q for a %d-byte body", tc.name, cl, len(got))
		}

		m, err := st.Manifest(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		vals, err := st.ReadRangeExact(m, 0, m.TotalValues)
		if err != nil {
			t.Fatal(err)
		}
		f, err := grid.FromData(m.Name, m.Prec(), vals, m.Dims...)
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if _, err := f.WriteTo(&want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("%s: exact body differs from ReadRangeExact + WriteTo", tc.name)
		}

		if tc.prec == grid.Float32 {
			at := len(body) - 4*n + 4*7 // the signaling NaN
			if b := binary.LittleEndian.Uint32(got[at:]); b != 0x7fc00001 {
				t.Fatalf("f32 signaling NaN served as %#x, want the quieted 0x7fc00001", b)
			}
			binary.LittleEndian.PutUint32(body[at:], 0x7fc00001)
		}
		if !bytes.Equal(got, body) {
			t.Fatalf("%s: exact body is not the upload", tc.name)
		}
	}

	// A lossy GET answers the bytes the streaming reader wrote before it read
	// through the store's chunk walk — rqm.NewReader over the container file
	// and WriteField — now with its Content-Length, and counts every chunk
	// it decodes in chunk_reads.
	_, mixed := mixedFieldBody(t)
	putDataset(t, ts, "adaptive", "mode=abs&eb=1e-4", mixed)
	if rr, status := postRecompact(t, ts, "adaptive", "target-psnr=60&adaptive-space=1"); status != http.StatusOK || rr.Skipped {
		t.Fatalf("adaptive-space recompact: status %d, %+v", status, rr)
	}
	for _, tc := range []struct {
		name string
		prec grid.Precision
		dims []int
	}{
		{"lossy-f32", grid.Float32, []int{n}},
		{"lossy-f64", grid.Float64, []int{n}},
		{"lossy-f32-3d", grid.Float32, []int{9, 14, 23}},
		{"lossy-f64-3d", grid.Float64, []int{9, 14, 23}},
		{"adaptive", 0, nil},
	} {
		if tc.dims != nil {
			putDataset(t, ts, tc.name, "mode=rel&eb=1e-3&chunk=1000", smoothField(t, tc.prec, tc.dims...))
		}
		m, err := st.Manifest(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		if len(m.Chunks) < 2 {
			t.Fatalf("%s: %d chunks, want several", tc.name, len(m.Chunks))
		}
		before := st.ChunkReads()
		status, got, hdr := getBody(t, ts, "/v1/datasets/"+tc.name)
		if status != http.StatusOK {
			t.Fatalf("%s: get status %d: %s", tc.name, status, got)
		}
		if reads := st.ChunkReads() - before; reads != int64(len(m.Chunks)) {
			t.Errorf("%s: the GET counted %d chunk reads, the dataset holds %d chunks", tc.name, reads, len(m.Chunks))
		}
		if cl := hdr.Get("Content-Length"); cl != strconv.Itoa(len(got)) {
			t.Errorf("%s: Content-Length %q for a %d-byte body", tc.name, cl, len(got))
		}
		want, field := streamedField(t, st, tc.name)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: lossy body differs from the streaming reader's", tc.name)
		}
		if hdr.Get("X-RQM-Field") != field || hdr.Get("X-RQM-Dataset") != tc.name || hdr.Get("X-RQM-Exact") != "" {
			t.Errorf("%s: headers %v, want X-RQM-Field %q and no X-RQM-Exact", tc.name, hdr, field)
		}
	}
}

// smoothField is the .rqmf body of a smooth field of shape dims at prec.
func smoothField(t *testing.T, prec grid.Precision, dims ...int) []byte {
	t.Helper()
	n := 1
	for _, d := range dims {
		n *= d
	}
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = math.Sin(float64(i)/37) + 0.25*math.Cos(float64(i%dims[len(dims)-1])/5)
	}
	f, err := grid.FromData("smooth", prec, vals, dims...)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if _, err := f.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// streamedField is what a whole lossy GET of dataset name served before it
// read through the store: the container file through rqm.NewReader and
// WriteField, and the field name the container records.
func streamedField(t *testing.T, st *store.Store, name string) ([]byte, string) {
	t.Helper()
	cpath, err := st.ContainerPath(name)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(cpath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sr, err := rqm.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	var b bytes.Buffer
	if _, err := sr.WriteField(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes(), sr.Header().Name
}

// TestExactGetProofGatesStatus: an exact GET that cannot prove its bytes
// answers 422 corrupt_dataset with the JSON error envelope and not one
// sample byte — for a residual that passes every file check but does not
// rebuild the original, and for a container with one flipped chunk byte.
func TestExactGetProofGatesStatus(t *testing.T) {
	_, st, ts := newStoreServer(t)
	f, body := testField(t)

	// A residual coded against a reconstruction one ULP off in value 0,
	// committed over the same container at the next generation.
	putDataset(t, ts, "liar", "mode=rel&eb=1e-5&chunk=1024&exact=1", body)
	head, err := st.Manifest("liar")
	if err != nil {
		t.Fatal(err)
	}
	m, err := st.FullManifest(head)
	if err != nil {
		t.Fatal(err)
	}
	recon, err := st.ReadRangeWith(m, 0, m.TotalValues)
	if err != nil {
		t.Fatal(err)
	}
	recon[0] = math.Nextafter(recon[0], math.Inf(1))
	var blocks []int
	for _, c := range m.Chunks {
		blocks = append(blocks, c.Values)
	}
	cpath, err := st.ContainerPath("liar")
	if err != nil {
		t.Fatal(err)
	}
	container, err := os.ReadFile(cpath)
	if err != nil {
		t.Fatal(err)
	}
	next := *m
	next.Generation++
	wrongRecon := func(_ string, w io.Writer) (*store.ResidualRecord, error) {
		c, err := residual.ByName("ans")
		if err != nil {
			return nil, err
		}
		_, err = residual.Encode(w, c, f.Prec, f.Data, recon, blocks)
		return &store.ResidualRecord{Backend: "ans"}, err
	}
	if _, err := st.Commit("liar", m, func(w io.Writer) (*store.Manifest, error) {
		_, err := w.Write(container)
		return &next, err
	}, wrongRecon); err != nil {
		t.Fatal(err)
	}

	// A sound exact dataset with one byte flipped inside chunk 1's record.
	putDataset(t, ts, "flipped", "mode=rel&eb=1e-5&chunk=1024&exact=1", body)
	fm, err := st.Manifest("flipped")
	if err != nil {
		t.Fatal(err)
	}
	fpath, err := st.ContainerPath("flipped")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(fpath)
	if err != nil {
		t.Fatal(err)
	}
	c1 := fm.Chunks[1]
	raw[c1.Offset+int64(c1.RecordBytes)/2] ^= 0x20
	if err := os.WriteFile(fpath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	for _, name := range []string{"liar", "flipped"} {
		status, got, hdr := getBody(t, ts, "/v1/datasets/"+name+"?exact=1")
		if status != http.StatusUnprocessableEntity {
			t.Fatalf("%s: exact get status %d, want 422", name, status)
		}
		if ct := hdr.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("%s: Content-Type %q, want the JSON envelope", name, ct)
		}
		var eb ErrorBody
		if err := json.Unmarshal(got, &eb); err != nil || eb.Error.Code != "corrupt_dataset" {
			t.Fatalf("%s: body %q (%v), want only the corrupt_dataset envelope", name, got, err)
		}
	}
}

// TestUndecodableChunkFailsGetBeforeStatus: a chunk past the first whose
// record passes its CRC but whose payload will not decode fails a whole
// GET with 422 corrupt_dataset and no sample byte, lossy and exact alike:
// every chunk decodes before the status goes out.
func TestUndecodableChunkFailsGetBeforeStatus(t *testing.T) {
	_, st, ts := newStoreServer(t)
	_, body := testField(t)
	putDataset(t, ts, "forged", "mode=rel&eb=1e-4&chunk=1024&exact=1", body)
	m, err := st.Manifest("forged")
	if err != nil {
		t.Fatal(err)
	}
	cpath, err := st.ContainerPath("forged")
	if err != nil {
		t.Fatal(err)
	}
	if err := faultfs.ForgeChunk(cpath, m.Chunks[1].Offset); err != nil {
		t.Fatal(err)
	}
	if err := st.VerifyDataset("forged", false); err != nil {
		t.Fatalf("the forged chunk fails shallow verification: %v", err)
	}
	for _, q := range []string{"", "?exact=1"} {
		status, got, hdr := getBody(t, ts, "/v1/datasets/forged"+q)
		if status != http.StatusUnprocessableEntity {
			t.Fatalf("GET %q: status %d, want 422", q, status)
		}
		if ct := hdr.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("GET %q: Content-Type %q, want the JSON envelope", q, ct)
		}
		var eb ErrorBody
		if err := json.Unmarshal(got, &eb); err != nil || eb.Error.Code != "corrupt_dataset" {
			t.Fatalf("GET %q: body %q (%v), want only the corrupt_dataset envelope", q, got, err)
		}
	}
}

// TestExactGetSurvivesConcurrentReads: exact GETs of two datasets at once
// each answer their own original, though their proofs share the store's
// pooled sample buffers.
func TestExactGetSurvivesConcurrentReads(t *testing.T) {
	_, _, ts := newStoreServer(t)
	bodies := map[string][]byte{
		"a": specialField(grid.Float32, 2500, nil),
		"b": specialField(grid.Float64, 1700, []uint64{0x8000000000000000}),
	}
	for name, body := range bodies {
		putDataset(t, ts, name, "mode=abs&eb=1e-3&chunk=512&exact=1", body)
	}
	done := make(chan error, 8)
	for k := range 8 {
		name := string(rune('a' + k%2))
		go func() {
			resp, err := http.Get(ts.URL + "/v1/datasets/" + name + "?exact=1")
			if err != nil {
				done <- err
				return
			}
			defer resp.Body.Close()
			got, err := io.ReadAll(resp.Body)
			if err == nil && !bytes.Equal(got, bodies[name]) {
				err = fmt.Errorf("%s: exact body is not the original", name)
			}
			done <- err
		}()
	}
	for range 8 {
		if err := <-done; err != nil {
			t.Error(err)
		}
	}
}
