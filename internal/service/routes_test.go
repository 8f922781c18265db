package service

import (
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
)

// expectRejected issues one request that dispatch must refuse before any
// handler runs, and asserts the typed envelope plus exactly one request and
// one error on the counters — whichever gate refused it.
func expectRejected(t *testing.T, svc *Service, ts *httptest.Server, method, path string, status int, code string) *http.Response {
	t.Helper()
	before := svc.Snapshot()
	req, err := http.NewRequest(method, ts.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	if resp.StatusCode != status {
		t.Fatalf("%s %s: status %d, want %d", method, path, resp.StatusCode, status)
	}
	if eb := decodeErrorBody(t, resp); eb.Error.Code != code {
		t.Fatalf("%s %s: code %q, want %q", method, path, eb.Error.Code, code)
	}
	after := svc.Snapshot()
	if after.Requests != before.Requests+1 || after.Errors != before.Errors+1 {
		t.Fatalf("%s %s: requests +%d errors +%d, want +1 +1", method, path,
			after.Requests-before.Requests, after.Errors-before.Errors)
	}
	return resp
}

// TestRouteTableGates ranges over the route table, so a route added to it
// cannot skip the cross-cutting contract: the method gate and its Allow
// list, admission of heavy routes, the store gate and the name gate.
func TestRouteTableGates(t *testing.T) {
	bare, bareTS := newTestServer(t, Config{MaxInflight: 1})
	stored, _, storedTS := newStoreServer(t)

	allow := map[string][]string{}
	for _, rt := range bare.routes {
		allow[rt.pattern] = append(allow[rt.pattern], rt.method)
	}
	for pattern, methods := range allow {
		sort.Strings(methods)
		resp := expectRejected(t, bare, bareTS, http.MethodPatch, strings.ReplaceAll(pattern, "{name}", "x"),
			http.StatusMethodNotAllowed, "method_not_allowed")
		if got, want := resp.Header.Get("Allow"), strings.Join(methods, ", "); got != want {
			t.Fatalf("%s: Allow %q, want %q", pattern, got, want)
		}
	}

	for _, rt := range bare.routes {
		path := strings.ReplaceAll(rt.pattern, "{name}", "x")
		if rt.needsStore {
			expectRejected(t, bare, bareTS, rt.method, path, http.StatusNotImplemented, "store_disabled")
		}
		if strings.Contains(rt.pattern, "{name}") {
			expectRejected(t, stored, storedTS, rt.method, strings.ReplaceAll(rt.pattern, "{name}", ".hidden"),
				http.StatusBadRequest, "bad_name")
		}
		if rt.class == heavy {
			rejected := bare.Snapshot().Rejected
			bare.sem <- struct{}{} // hold the only permit, as an in-flight heavy request would
			resp := expectRejected(t, bare, bareTS, rt.method, path, http.StatusTooManyRequests, "too_many_requests")
			<-bare.sem
			if resp.Header.Get("Retry-After") == "" {
				t.Fatalf("%s %s: 429 without Retry-After", rt.method, path)
			}
			if got := bare.Snapshot().Rejected; got != rejected+1 {
				t.Fatalf("%s %s: rejected +%d, want +1", rt.method, path, got-rejected)
			}
		}
	}
}
