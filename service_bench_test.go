package rqm_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"rqm"
	"rqm/internal/service"
)

// serviceBenchSetup builds a service and one .rqmf request body.
func serviceBenchSetup(b *testing.B) (*service.Service, []byte) {
	b.Helper()
	svc, err := service.New(service.Config{})
	if err != nil {
		b.Fatal(err)
	}
	g, err := rqm.GenerateField("nyx/temperature", 3, rqm.ScaleSmall)
	if err != nil {
		b.Fatal(err)
	}
	f, err := rqm.FieldFromData("bench", rqm.Float64, g.Data, g.Dims...)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		b.Fatal(err)
	}
	return svc, buf.Bytes()
}

// postProfile runs one POST /v1/profile through the handler and returns the
// profile ID.
func postProfile(b *testing.B, svc *service.Service, body []byte) string {
	b.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/profile", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	svc.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		b.Fatalf("profile status %d: %s", rec.Code, rec.Body.String())
	}
	var pr service.ProfileResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &pr); err != nil {
		b.Fatal(err)
	}
	return pr.Profile
}

// BenchmarkServiceProfileCold measures the cache-miss path: every request
// pays the full sampling pass plus curve evaluation. This is the cost the
// profile cache amortizes away.
func BenchmarkServiceProfileCold(b *testing.B) {
	svc, body := serviceBenchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		svc.FlushProfiles() // force the cold path
		postProfile(b, svc, body)
	}
}

// BenchmarkServiceEstimateCached measures the serving hot path: after one
// profile, every ratio/PSNR question is answered from the cache in
// O(sample) with no field upload and no sampling pass — at least an order of
// magnitude faster than the cold profile (`go run ./bench` keeps the pair as
// service.estimate_us vs service.profile_cold_ms).
func BenchmarkServiceEstimateCached(b *testing.B) {
	svc, body := serviceBenchSetup(b)
	id := postProfile(b, svc, body)
	url := "/v1/estimate?profile=" + id + "&eb=1e-3"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodGet, url, nil)
		rec := httptest.NewRecorder()
		svc.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("estimate status %d: %s", rec.Code, rec.Body.String())
		}
	}
}
