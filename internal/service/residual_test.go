package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"rqm"
	"rqm/internal/grid"
	"rqm/internal/residual"
)

// getBody GETs a path and returns status, body, and headers.
func getBody(t testing.TB, ts *httptest.Server, path string) (int, []byte, http.Header) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body, resp.Header
}

// postJSON POSTs body and decodes a DatasetInfo on 2xx.
func postInfo(t testing.TB, ts *httptest.Server, path string, body []byte) (int, DatasetInfo, http.Header) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var info DatasetInfo
	if resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, info, resp.Header
}

// TestExactLifecycle pins the end-to-end progressive-quality contract: a put
// with ?exact=1 stores a residual layer, GET ?exact=1 returns the original
// byte for byte (SHA-256 equal to the uploaded body), exact slices match the
// original values bitwise, and the residual metrics move.
func TestExactLifecycle(t *testing.T) {
	svc, st, ts := newStoreServer(t)
	f, body := testField(t)

	info := putDataset(t, ts, "px", "mode=rel&eb=1e-3&chunk=1024&exact=1", body)
	if !info.Exact || info.ResidualBytes <= 0 || info.ResidualBackend == "" {
		t.Fatalf("exact put info %+v", info)
	}
	if st.ResidualBytes() != info.ResidualBytes {
		t.Fatalf("store residual gauge %d, info says %d", st.ResidualBytes(), info.ResidualBytes)
	}

	// The lossy tier serves an approximation, not the original.
	status, lossy, _ := getBody(t, ts, "/v1/datasets/px")
	if status != http.StatusOK {
		t.Fatalf("lossy get status %d", status)
	}
	if bytes.Equal(lossy, body) {
		t.Fatal("lossy get returned the original bit for bit; test field compresses too easily")
	}

	// The exact tier is the original, down to the hash of the wire bytes.
	status, exact, hdr := getBody(t, ts, "/v1/datasets/px?exact=1")
	if status != http.StatusOK {
		t.Fatalf("exact get status %d", status)
	}
	if hdr.Get("X-RQM-Exact") != "1" {
		t.Fatal("exact get missing X-RQM-Exact header")
	}
	if sha256.Sum256(exact) != sha256.Sum256(body) {
		t.Fatal("exact get is not byte-identical to the uploaded original")
	}

	// An exact slice matches the original bitwise over an arbitrary range.
	const off, n = 777, 1500
	status, sbody, shdr := getBody(t, ts, fmt.Sprintf("/v1/datasets/px/slice?off=%d&len=%d&exact=1", off, n))
	if status != http.StatusOK {
		t.Fatalf("exact slice status %d", status)
	}
	if shdr.Get("X-RQM-Exact") != "1" {
		t.Fatal("exact slice missing X-RQM-Exact header")
	}
	sf, err := grid.ReadFrom(bytes.NewReader(sbody))
	if err != nil {
		t.Fatal(err)
	}
	if sf.Len() != n {
		t.Fatalf("exact slice holds %d values, want %d", sf.Len(), n)
	}
	for i := 0; i < n; i++ {
		if math.Float64bits(sf.Data[i]) != math.Float64bits(f.Data[off+i]) {
			t.Fatalf("exact slice[%d] = %x, original %x", i,
				math.Float64bits(sf.Data[i]), math.Float64bits(f.Data[off+i]))
		}
	}

	snap := svc.Snapshot()
	if snap.ExactReads != 2 || snap.ResidualBytes != info.ResidualBytes {
		t.Fatalf("residual metrics %+v", snap)
	}
}

// TestDemoteDropsExactTier pins the demote contract: the residual goes, the
// lossy base stays, and exact reads turn into typed 409 no_residual.
func TestDemoteDropsExactTier(t *testing.T) {
	svc, st, ts := newStoreServer(t)
	_, body := testField(t)
	info := putDataset(t, ts, "dm", "mode=abs&eb=1e-4&exact=1", body)

	status, dinfo, hdr := postInfo(t, ts, "/v1/datasets/dm/demote", nil)
	if status != http.StatusOK || hdr.Get("X-RQM-Demote") != "demoted" {
		t.Fatalf("demote: status %d, header %q", status, hdr.Get("X-RQM-Demote"))
	}
	if dinfo.Exact || dinfo.ResidualBytes != 0 || dinfo.Generation != info.Generation+1 {
		t.Fatalf("demoted info %+v", dinfo)
	}
	if st.ResidualBytes() != 0 {
		t.Fatalf("residual gauge %d after demote, want 0", st.ResidualBytes())
	}

	// Exact read: typed 409 no_residual. Lossy read: still serves.
	resp, err := http.Get(ts.URL + "/v1/datasets/dm?exact=1")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("exact get after demote: status %d, want 409", resp.StatusCode)
	}
	if eb := decodeErrorBody(t, resp); eb.Error.Code != "no_residual" {
		t.Fatalf("exact get after demote: code %q", eb.Error.Code)
	}
	resp.Body.Close()
	status, lossy, _ := getBody(t, ts, "/v1/datasets/dm")
	if status != http.StatusOK || len(lossy) == 0 {
		t.Fatalf("lossy get after demote: status %d, %d bytes", status, len(lossy))
	}
	status, _, _ = getBody(t, ts, "/v1/datasets/dm/slice?off=0&len=16&exact=1")
	if status != http.StatusConflict {
		t.Fatalf("exact slice after demote: status %d, want 409", status)
	}

	// Demoting a lossy dataset is an idempotent no-op.
	status, _, hdr = postInfo(t, ts, "/v1/datasets/dm/demote", nil)
	if status != http.StatusOK || hdr.Get("X-RQM-Demote") != "skipped" {
		t.Fatalf("second demote: status %d, header %q", status, hdr.Get("X-RQM-Demote"))
	}
	if snap := svc.Snapshot(); snap.Demotes != 1 {
		t.Fatalf("demotes metric %d, want 1", snap.Demotes)
	}
}

// TestPromoteLossyDataset pins the promote contract: the body must prove
// itself the original (ContentHash), the residual installs at generation+1,
// and exact reads come alive — byte-identical to the original.
func TestPromoteLossyDataset(t *testing.T) {
	svc, _, ts := newStoreServer(t)
	_, body := testField(t)
	info := putDataset(t, ts, "pm", "mode=abs&eb=1e-4", body)
	if info.Exact {
		t.Fatalf("plain put stored a residual: %+v", info)
	}

	// Bodyless promote of a lossy dataset cannot conjure the original.
	resp, err := http.Post(ts.URL+"/v1/datasets/pm/promote", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("bodyless promote: status %d, want 409", resp.StatusCode)
	}
	if eb := decodeErrorBody(t, resp); eb.Error.Code != "no_residual" {
		t.Fatalf("bodyless promote: code %q", eb.Error.Code)
	}
	resp.Body.Close()

	// A body that is NOT the original is refused — the handler must never
	// install a residual that "restores" to the wrong data.
	wrong := append([]byte(nil), body...)
	wrong[len(wrong)-1] ^= 0x01
	status, _, _ := postInfo(t, ts, "/v1/datasets/pm/promote", wrong)
	if status != http.StatusConflict {
		t.Fatalf("wrong-body promote: status %d, want 409", status)
	}

	// The true original promotes; exact reads return it bit for bit.
	status, pinfo, hdr := postInfo(t, ts, "/v1/datasets/pm/promote", body)
	if status != http.StatusCreated || hdr.Get("X-RQM-Promote") != "promoted" {
		t.Fatalf("promote: status %d, header %q", status, hdr.Get("X-RQM-Promote"))
	}
	if !pinfo.Exact || pinfo.Generation != info.Generation+1 || pinfo.ContentHash != info.ContentHash {
		t.Fatalf("promoted info %+v", pinfo)
	}
	status, exact, _ := getBody(t, ts, "/v1/datasets/pm?exact=1")
	if status != http.StatusOK || sha256.Sum256(exact) != sha256.Sum256(body) {
		t.Fatalf("exact get after promote: status %d, identical=%v", status,
			sha256.Sum256(exact) == sha256.Sum256(body))
	}

	// Promoting an already-promoted dataset without a body is a no-op.
	status, _, hdr = postInfo(t, ts, "/v1/datasets/pm/promote", nil)
	if status != http.StatusOK || hdr.Get("X-RQM-Promote") != "skipped" {
		t.Fatalf("second promote: status %d, header %q", status, hdr.Get("X-RQM-Promote"))
	}
	if snap := svc.Snapshot(); snap.Promotes != 1 {
		t.Fatalf("promotes metric %d, want 1", snap.Promotes)
	}
}

// TestRecompactFromTrueOriginal pins the accumulation-killing contract: a
// recompaction of a residual-bearing dataset re-encodes from the recovered
// original, so (1) the recorded bound is the new bound alone while the
// lossy-rebase twin records old+new, (2) the achieved PSNR vs the TRUE
// original beats the lossy-rebase twin's, and (3) the residual is rebuilt —
// the dataset is still bit-exact at generation+1.
func TestRecompactFromTrueOriginal(t *testing.T) {
	_, _, ts := newStoreServer(t)
	f, body := testField(t)
	putDataset(t, ts, "ex", "mode=rel&eb=1e-5&chunk=1024&exact=1", body)
	putDataset(t, ts, "lo", "mode=rel&eb=1e-5&chunk=1024", body)

	const target = 60.0
	rrEx, status := postRecompact(t, ts, "ex", fmt.Sprintf("target-psnr=%g", target))
	if status != http.StatusOK || rrEx.Skipped {
		t.Fatalf("exact recompact: status %d, %+v", status, rrEx)
	}
	rrLo, status := postRecompact(t, ts, "lo", fmt.Sprintf("target-psnr=%g", target))
	if status != http.StatusOK || rrLo.Skipped {
		t.Fatalf("lossy recompact: status %d, %+v", status, rrLo)
	}

	// The exact rewrite's bound stands alone; the lossy rebase accumulates.
	if rrEx.NewBound >= rrLo.NewBound {
		t.Fatalf("exact rewrite bound %.6g not tighter than lossy-rebase bound %.6g",
			rrEx.NewBound, rrLo.NewBound)
	}
	if rrEx.Generation != 1 || rrLo.Generation != 1 {
		t.Fatalf("generations %d/%d, want 1/1", rrEx.Generation, rrLo.Generation)
	}

	// Measured PSNR vs the TRUE original: the exact-input rewrite wins.
	psnr := func(name string) float64 {
		status, b, _ := getBody(t, ts, "/v1/datasets/"+name)
		if status != http.StatusOK {
			t.Fatalf("get %s: status %d", name, status)
		}
		back, err := grid.ReadFrom(bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		v, err := rqm.PSNR(f, back)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	psnrEx, psnrLo := psnr("ex"), psnr("lo")
	if psnrEx < psnrLo {
		t.Fatalf("recompact-from-original PSNR %.2f dB below lossy-rebase %.2f dB", psnrEx, psnrLo)
	}
	// And it lands on the quality target against the true original. The model
	// solves the bound to hit the target exactly, so the achieved value sits
	// within modeling tolerance of it — for a lossy rebase the same request
	// degrades by the accumulated input error instead.
	if psnrEx < target-0.5 {
		t.Fatalf("recompact-from-original achieved %.2f dB vs the original, target %g", psnrEx, target)
	}

	// The residual was rebuilt against the new container: still bit-exact.
	status, exact, _ := getBody(t, ts, "/v1/datasets/ex?exact=1")
	if status != http.StatusOK || sha256.Sum256(exact) != sha256.Sum256(body) {
		t.Fatalf("exact read after recompact: status %d, identical=%v", status,
			sha256.Sum256(exact) == sha256.Sum256(body))
	}
	// The lossy twin, of course, has no exact tier to keep.
	status, _, _ = getBody(t, ts, "/v1/datasets/lo?exact=1")
	if status != http.StatusConflict {
		t.Fatalf("exact read on lossy twin: status %d, want 409", status)
	}
}

// TestRecompactTightensPromotedDataset pins the inverted skip logic: asking
// for HIGHER quality than stored is unreachable for a lossy archive (typed
// skip) but legal for a promoted one — the original is recoverable, so the
// rewrite tightens the bound and the quality improves for real.
func TestRecompactTightensPromotedDataset(t *testing.T) {
	_, _, ts := newStoreServer(t)
	f, body := testField(t)
	putDataset(t, ts, "tx", "mode=rel&eb=1e-3&chunk=1024&exact=1", body)
	putDataset(t, ts, "tl", "mode=rel&eb=1e-3&chunk=1024", body)

	const target = 90.0 // well above what rel 1e-3 (~65 dB) delivers
	rrLo, status := postRecompact(t, ts, "tl", fmt.Sprintf("target-psnr=%g", target))
	if status != http.StatusOK || !rrLo.Skipped {
		t.Fatalf("lossy tighten: status %d, %+v (want typed skip)", status, rrLo)
	}
	rrEx, status := postRecompact(t, ts, "tx", fmt.Sprintf("target-psnr=%g", target))
	if status != http.StatusOK || rrEx.Skipped {
		t.Fatalf("promoted tighten: status %d, %+v (want rewrite)", status, rrEx)
	}
	if rrEx.NewBound >= rrEx.OldBound {
		t.Fatalf("tightening rewrite loosened the bound: %.6g -> %.6g", rrEx.OldBound, rrEx.NewBound)
	}
	status, b, _ := getBody(t, ts, "/v1/datasets/tx")
	if status != http.StatusOK {
		t.Fatalf("get after tighten: status %d", status)
	}
	back, err := grid.ReadFrom(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if err := rqm.VerifyErrorBound(f, back, rqm.ABS, rrEx.NewBound*(1+1e-12)); err != nil {
		t.Fatalf("tightened dataset misses its own bound: %v", err)
	}
}

// TestRawPutResidualFrame pins the replica-transfer frame: manifest JSON +
// container + residual round-trips a promoted dataset onto a second server
// byte-identically, and a frame whose residual bytes are corrupt is refused
// with nothing committed.
func TestRawPutResidualFrame(t *testing.T) {
	_, _, src := newStoreServer(t)
	_, dstStore, dst := newStoreServer(t)
	_, body := testField(t)
	putDataset(t, src, "rf", "mode=abs&eb=1e-4&exact=1", body)

	_, manifest, _ := getBody(t, src, "/v1/datasets/rf?manifest=1&full=1")
	_, container, _ := getBody(t, src, "/v1/datasets/rf?raw=1")
	status, residualBytes, rhdr := getBody(t, src, "/v1/datasets/rf?raw=1&residual=1")
	if status != http.StatusOK || len(residualBytes) == 0 {
		t.Fatalf("raw residual get: status %d, %d bytes", status, len(residualBytes))
	}
	if rhdr.Get("X-RQM-Residual-Backend") == "" || rhdr.Get("X-RQM-Residual-Hash") == "" {
		t.Fatalf("raw residual get missing headers: %v", rhdr)
	}

	frame := func(res []byte) []byte {
		var buf bytes.Buffer
		var lenb [4]byte
		binary.BigEndian.PutUint32(lenb[:], uint32(len(bytes.TrimSpace(manifest))))
		buf.Write(lenb[:])
		buf.Write(bytes.TrimSpace(manifest))
		buf.Write(container)
		buf.Write(res)
		return buf.Bytes()
	}

	// A corrupted residual frame is refused end-to-end: the staged bytes do
	// not reproduce the declared hash, so nothing commits.
	bad := append([]byte(nil), residualBytes...)
	bad[len(bad)/2] ^= 0x40
	status, _, _ = postInfo(t, dst, "/v1/datasets/rf/raw", frame(bad))
	if status == http.StatusCreated {
		t.Fatal("raw put committed a corrupted residual frame")
	}
	if _, err := dstStore.Manifest("rf"); err == nil {
		t.Fatal("corrupted raw put left a committed dataset behind")
	}

	// The intact frame transfers the full progressive dataset.
	status, info, _ := postInfo(t, dst, "/v1/datasets/rf/raw", frame(residualBytes))
	if status != http.StatusCreated || !info.Exact {
		t.Fatalf("raw put with residual: status %d, info %+v", status, info)
	}
	statusE, exact, _ := getBody(t, dst, "/v1/datasets/rf?exact=1")
	if statusE != http.StatusOK || sha256.Sum256(exact) != sha256.Sum256(body) {
		t.Fatalf("exact read on replica: status %d, identical=%v", statusE,
			sha256.Sum256(exact) == sha256.Sum256(body))
	}
	if err := dstStore.VerifyDataset("rf", true); err != nil {
		t.Fatalf("replica deep verify: %v", err)
	}
}

// rawPutCode posts a raw-put frame and returns the status and, for an
// error, its code.
func rawPutCode(t *testing.T, ts *httptest.Server, name string, frame []byte) (int, string) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/datasets/"+name+"/raw", "application/octet-stream", bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode < 300 {
		return resp.StatusCode, ""
	}
	return resp.StatusCode, decodeErrorBody(t, resp).Error.Code
}

// promotedReplicaParts puts an exact dataset on a fresh server and returns
// what a replica is sent: the full manifest, the container and the residual.
func promotedReplicaParts(t *testing.T, name string) (man, container, res []byte) {
	t.Helper()
	_, _, src := newStoreServer(t)
	_, body := testField(t)
	putDataset(t, src, name, "mode=abs&eb=1e-4&chunk=1024&exact=1", body)
	man, container = fetchReplicaParts(t, src, name)
	status, res, _ := getBody(t, src, "/v1/datasets/"+name+"?raw=1&residual=1")
	if status != http.StatusOK {
		t.Fatalf("raw residual get: status %d", status)
	}
	return bytes.TrimSpace(man), container, res
}

// TestRawPutEndsAtItsResidual pins the end of a raw-put frame: a byte after
// the declared residual is refused 422 corrupt_dataset with nothing
// committed, as a byte after a container-only frame's container is.
func TestRawPutEndsAtItsResidual(t *testing.T) {
	man, container, res := promotedReplicaParts(t, "tail")
	lossy, lcontainer := func() ([]byte, []byte) {
		_, _, src := newStoreServer(t)
		_, body := testField(t)
		putDataset(t, src, "tail", "mode=abs&eb=1e-4&chunk=1024", body)
		return fetchReplicaParts(t, src, "tail")
	}()
	for label, frame := range map[string][]byte{
		"container-only": append(rawFrame(lossy, lcontainer), 0),
		"residual":       append(rawFrame(man, append(append([]byte(nil), container...), res...)), 0),
	} {
		_, dstStore, dst := newStoreServer(t)
		if status, code := rawPutCode(t, dst, "tail", frame); status != http.StatusUnprocessableEntity || code != "corrupt_dataset" {
			t.Errorf("%s frame with a trailing byte: %d %q, want 422 corrupt_dataset", label, status, code)
		}
		if _, err := dstStore.Manifest("tail"); err == nil {
			t.Errorf("%s frame with a trailing byte committed the dataset", label)
		}
	}
}

// TestRawPutRefusesResidualFailingVerification pins "nothing that fails
// shallow verification is published" for the residual: a frame whose
// manifest declares the hash of a residual with one flipped block-payload
// byte reproduces its size and hash, and is refused at the block CRC.
func TestRawPutRefusesResidualFailingVerification(t *testing.T) {
	man, container, res := promotedReplicaParts(t, "flip")
	idx, err := residual.LoadIndex(bytes.NewReader(res))
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), res...)
	e := idx.Blocks[len(idx.Blocks)/2]
	bad[e.Offset+13+int64(e.EncBytes/2)] ^= 0x40 // past the 13-byte block header
	oldSum, newSum := sha256.Sum256(res), sha256.Sum256(bad)
	lying := bytes.Replace(man, []byte(hex.EncodeToString(oldSum[:])), []byte(hex.EncodeToString(newSum[:])), 1)
	if bytes.Equal(lying, man) {
		t.Fatal("manifest does not carry the residual hash")
	}

	_, dstStore, dst := newStoreServer(t)
	status, code := rawPutCode(t, dst, "flip", rawFrame(lying, append(append([]byte(nil), container...), bad...)))
	if status != http.StatusUnprocessableEntity || code != "corrupt_dataset" {
		t.Fatalf("raw put of a residual with a flipped payload byte: %d %q, want 422 corrupt_dataset", status, code)
	}
	if _, err := dstStore.Manifest("flip"); err == nil {
		t.Fatal("refused raw put committed the dataset")
	}
}
