package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"rqm"
	"rqm/internal/grid"
	"rqm/internal/service"
	"rqm/internal/store"
)

// newDatasetClient stands up a store-backed service and a client for it.
func newDatasetClient(t *testing.T) *Client {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	svc, err := service.New(service.Config{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc)
	t.Cleanup(ts.Close)
	c, err := New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestDatasetClientEndToEnd drives every dataset method: put, stat, list,
// get (field + raw container), slice, recompact, delete.
func TestDatasetClientEndToEnd(t *testing.T) {
	c := newDatasetClient(t)
	ctx := context.Background()
	f, body := fieldBytes(t)

	info, err := c.PutDataset(ctx, "e2e", bytes.NewReader(body), PutDatasetParams{
		Mode: "rel", ErrorBound: 1e-3, ChunkValues: 1024, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if info.Name != "e2e" || info.TotalValues != int64(f.Len()) || !info.Profiled {
		t.Fatalf("put info %+v", info)
	}

	stat, err := c.StatDataset(ctx, "e2e")
	if err != nil {
		t.Fatal(err)
	}
	if stat.ContentHash != info.ContentHash {
		t.Fatalf("stat hash %q, put hash %q", stat.ContentHash, info.ContentHash)
	}
	list, err := c.ListDatasets(ctx)
	if err != nil || len(list) != 1 || list[0].Name != "e2e" {
		t.Fatalf("list %v, %v", list, err)
	}

	var field bytes.Buffer
	if err := c.GetDataset(ctx, "e2e", &field); err != nil {
		t.Fatal(err)
	}
	back, err := grid.ReadFrom(&field)
	if err != nil {
		t.Fatal(err)
	}
	if err := rqm.VerifyErrorBound(f, back, rqm.REL, 1e-3*(1+1e-12)); err != nil {
		t.Fatal(err)
	}

	var container bytes.Buffer
	if err := c.GetDatasetContainer(ctx, "e2e", &container); err != nil {
		t.Fatal(err)
	}
	if int64(container.Len()) != info.ContainerBytes {
		t.Fatalf("container %d bytes, manifest says %d", container.Len(), info.ContainerBytes)
	}

	var slice bytes.Buffer
	if err := c.SliceDataset(ctx, "e2e", 100, 50, &slice); err != nil {
		t.Fatal(err)
	}
	sf, err := grid.ReadFrom(&slice)
	if err != nil {
		t.Fatal(err)
	}
	if sf.Len() != 50 {
		t.Fatalf("slice holds %d values, want 50", sf.Len())
	}
	for i := 0; i < 50; i++ {
		if sf.Data[i] != back.Data[100+i] {
			t.Fatalf("slice[%d] differs from full decompress", i)
		}
	}

	rr, err := c.RecompactDataset(ctx, "e2e", SolveTarget{Kind: "ratio", Value: info.Ratio / 2})
	if err != nil {
		t.Fatal(err)
	}
	if !rr.Skipped {
		t.Fatalf("recompact to met target not skipped: %+v", rr)
	}

	if err := c.DeleteDataset(ctx, "e2e"); err != nil {
		t.Fatal(err)
	}
	var ae *APIError
	if _, err := c.StatDataset(ctx, "e2e"); !errors.As(err, &ae) || ae.Code != "dataset_not_found" {
		t.Fatalf("stat after delete: %v", err)
	}
}

// TestDatasetClientExactLifecycle drives the progressive-quality methods:
// exact put, bit-exact get and slice, demote, promote, and the typed 409 a
// lossy dataset answers exact reads with.
func TestDatasetClientExactLifecycle(t *testing.T) {
	c := newDatasetClient(t)
	ctx := context.Background()
	f, body := fieldBytes(t)

	info, err := c.PutDataset(ctx, "exact", bytes.NewReader(body), PutDatasetParams{
		Mode: "rel", ErrorBound: 1e-3, ChunkValues: 1024, Exact: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !info.Exact || info.ResidualBytes == 0 {
		t.Fatalf("exact put info %+v — no residual recorded", info)
	}

	var got bytes.Buffer
	if err := c.GetDatasetExact(ctx, "exact", &got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), body) {
		t.Fatal("exact get is not the original bytes")
	}

	var slice bytes.Buffer
	if err := c.SliceDatasetExact(ctx, "exact", 200, 77, &slice); err != nil {
		t.Fatal(err)
	}
	sf, err := grid.ReadFrom(&slice)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 77; i++ {
		if sf.Data[i] != f.Data[200+i] {
			t.Fatalf("exact slice[%d] differs from the original", i)
		}
	}

	// Demote drops the layer: exact reads answer the typed 409, the lossy
	// tier keeps serving.
	dinfo, err := c.DemoteDataset(ctx, "exact")
	if err != nil {
		t.Fatal(err)
	}
	if dinfo.Exact || dinfo.Generation != info.Generation+1 {
		t.Fatalf("demote info %+v", dinfo)
	}
	var ae *APIError
	if err := c.GetDatasetExact(ctx, "exact", &bytes.Buffer{}); !errors.As(err, &ae) || ae.Code != "no_residual" {
		t.Fatalf("exact get after demote: %v", err)
	}
	if err := c.GetDataset(ctx, "exact", &bytes.Buffer{}); err != nil {
		t.Fatalf("lossy get after demote: %v", err)
	}

	// Promote with the true original restores the exact tier.
	pinfo, err := c.PromoteDataset(ctx, "exact", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if !pinfo.Exact || pinfo.ResidualBytes == 0 {
		t.Fatalf("promote info %+v", pinfo)
	}
	got.Reset()
	if err := c.GetDatasetExact(ctx, "exact", &got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), body) {
		t.Fatal("exact get after promote is not the original bytes")
	}
}

// TestGetDatasetExactSendsLength: an exact GET declares its body's length
// (the .rqmf header and the proven samples) before the body, and
// GetDatasetExact still returns the original bytes, on f32 and f64 data.
func TestGetDatasetExactSendsLength(t *testing.T) {
	c := newDatasetClient(t)
	ctx := context.Background()
	f, _ := fieldBytes(t)
	for _, prec := range []rqm.Precision{rqm.Float32, rqm.Float64} {
		data := append([]float64(nil), f.Data...)
		if prec == rqm.Float32 {
			for i, v := range data {
				data[i] = float64(float32(v))
			}
		}
		pf, err := rqm.FieldFromData("len", prec, data, f.Dims...)
		if err != nil {
			t.Fatal(err)
		}
		var body bytes.Buffer
		if _, err := pf.WriteTo(&body); err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("len%d", prec.Bits())
		if _, err := c.PutDataset(ctx, name, bytes.NewReader(body.Bytes()), PutDatasetParams{
			Mode: "rel", ErrorBound: 1e-3, ChunkValues: 1000, Exact: true,
		}); err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := c.GetDatasetExact(ctx, name, &got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), body.Bytes()) {
			t.Fatalf("%s: exact get is not the original bytes", name)
		}
		resp, err := http.Get(c.base + "/v1/datasets/" + name + "?exact=1")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.ContentLength != int64(body.Len()) {
			t.Fatalf("%s: Content-Length %d for a %d-byte body", name, resp.ContentLength, body.Len())
		}
	}
}

// TestRetryOn429 pins the idempotent-retry policy: GETs retry the typed
// admission rejection with backoff until an attempt succeeds, POSTs never
// retry, and a capped client gives up with the original *APIError.
func TestRetryOn429(t *testing.T) {
	var gets, posts, rejectFirst atomic.Int64
	rejectFirst.Store(2)
	mux := http.NewServeMux()
	reject := func(w http.ResponseWriter) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusTooManyRequests)
		var body service.ErrorBody
		body.Error.Code = "too_many_requests"
		body.Error.Message = "full"
		json.NewEncoder(w).Encode(&body)
	}
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if gets.Add(1) <= rejectFirst.Load() {
			reject(w)
			return
		}
		json.NewEncoder(w).Encode(&service.HealthResponse{Status: "ok"})
	})
	mux.HandleFunc("/v1/compress", func(w http.ResponseWriter, r *http.Request) {
		posts.Add(1)
		reject(w)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	c, err := New(ts.URL, WithRetry(3, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	// Two rejections, then success on the third (and last allowed) attempt.
	if _, err := c.Health(context.Background()); err != nil {
		t.Fatalf("health with retries: %v", err)
	}
	if got := gets.Load(); got != 3 {
		t.Fatalf("server saw %d GET attempts, want 3", got)
	}

	// POST is not idempotent: exactly one attempt, error surfaces.
	var ae *APIError
	_, err = c.Compress(context.Background(), bytes.NewReader(nil), &bytes.Buffer{}, CompressParams{})
	if !errors.As(err, &ae) || ae.Status != http.StatusTooManyRequests {
		t.Fatalf("compress error %v, want 429 APIError", err)
	}
	if posts.Load() != 1 {
		t.Fatalf("server saw %d POST attempts, want 1", posts.Load())
	}

	// A capped client exhausts its attempts and reports the typed error.
	gets.Store(0)
	rejectFirst.Store(100)
	c2, err := New(ts.URL, WithRetry(2, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Health(context.Background()); !errors.As(err, &ae) || ae.Code != "too_many_requests" {
		t.Fatalf("capped retry error %v", err)
	}
	if gets.Load() != 2 {
		t.Fatalf("capped client tried %d times, want 2", gets.Load())
	}

	// Context cancellation interrupts the backoff sleep.
	c3, err := New(ts.URL, WithRetry(10, time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := c3.Health(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("canceled retry error %v, want DeadlineExceeded", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("backoff ignored context cancellation")
	}
}
