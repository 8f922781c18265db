package client

import (
	"context"
	"net/http"
	"net/url"

	"rqm/internal/service"
	"rqm/internal/store"
)

// Integrity methods: drive a shard's background scrub pass. These talk to a
// single rqserved shard (the router does not proxy /v1/scrub — each shard's
// archive is scrubbed where it lives).

// Re-exported scrub wire types: the service's format is the contract.
type (
	// ScrubStatus is the GET /v1/scrub/status (and POST /v1/scrub) answer.
	ScrubStatus = service.ScrubStatusResponse
	// ScrubReport is the completed pass's result inside ScrubStatus.
	ScrubReport = store.ScrubReport
	// ScrubIssue is one corrupt dataset found by a pass.
	ScrubIssue = store.ScrubIssue
)

// StartScrub kicks off one background integrity pass over the shard's
// archive (202; a pass already running answers *APIError scrub_running).
// With deep, every chunk is fully decoded and the container re-hashed
// against its commit-time SHA-256, not just CRC-swept.
func (c *Client) StartScrub(ctx context.Context, deep bool) (*ScrubStatus, error) {
	q := url.Values{}
	if deep {
		q.Set("deep", "1")
	}
	return doJSON[ScrubStatus](ctx, c, http.MethodPost, "/v1/scrub", q, nil, "scrub status")
}

// ScrubStatus reports the current (or last) scrub pass's progress and, once
// finished, its full report.
func (c *Client) ScrubStatus(ctx context.Context) (*ScrubStatus, error) {
	return doJSON[ScrubStatus](ctx, c, http.MethodGet, "/v1/scrub/status", nil, nil, "scrub status")
}
