package client

import (
	"context"
	"net/http"

	"rqm/internal/router"
)

// Cluster-tier methods: these only work against an rqrouter endpoint (a
// plain rqserved shard answers 404 "not_found" for /v1/cluster/*, which
// surfaces as *APIError). Everything else on Client — dataset put/get/list/
// delete/slice/recompact — works identically against a shard or a router,
// because the router proxies the dataset API verbatim.

// Re-exported cluster wire types: the router's format is the contract.
type (
	// ClusterStatus is the GET /v1/cluster/status answer.
	ClusterStatus = router.ClusterStatus
	// ShardStatus is one shard's health record within ClusterStatus.
	ShardStatus = router.ShardStatus
	// RebalanceReport is the POST /v1/cluster/rebalance answer.
	RebalanceReport = router.RebalanceReport
	// RouterMetrics is the router's /metrics answer.
	RouterMetrics = router.Metrics
)

// RouterStatus fetches cluster topology and per-shard health from a router.
func (c *Client) RouterStatus(ctx context.Context) (*ClusterStatus, error) {
	return doJSON[ClusterStatus](ctx, c, http.MethodGet, "/v1/cluster/status", nil, nil, "cluster status")
}

// Rebalance asks a router to run one placement repair pass and reports
// what moved. Idempotent at the byte level (a clean second pass only
// skips), but a POST all the same: it is never auto-retried.
func (c *Client) Rebalance(ctx context.Context) (*RebalanceReport, error) {
	return doJSON[RebalanceReport](ctx, c, http.MethodPost, "/v1/cluster/rebalance", nil, nil, "rebalance report")
}

// RouterMetricsSnapshot fetches the router's proxy/failover counters.
func (c *Client) RouterMetricsSnapshot(ctx context.Context) (*RouterMetrics, error) {
	return doJSON[RouterMetrics](ctx, c, http.MethodGet, "/metrics", nil, nil, "router metrics")
}
