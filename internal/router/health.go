package router

import (
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"time"

	"rqm/internal/service"
)

// Shard health is tracked two ways. An active prober GETs each shard's
// /healthz on a fixed interval and requires FailAfter consecutive failures
// before marking a shard down (one dropped probe must not evict a shard
// from every read path). Passive detection is the fast path: a transport
// error while proxying marks the shard down immediately — the caller just
// proved it unreachable, waiting out the probe threshold would only send
// more requests into the same hole. Either way, a single successful probe
// restores the shard. A 503 readiness response (shard draining for
// shutdown) counts as a failed probe: the shard asked to be taken out of
// rotation before its listener closes.

// shardState is the health record for one configured shard: its immutable
// url, and the mutable rest kept as the ShardStatus it is served as.
type shardState struct {
	url string

	mu sync.Mutex
	st ShardStatus
}

// status copies the record for status reporting.
func (s *shardState) status() ShardStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.st
}

func (s *shardState) isHealthy() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.st.Healthy
}

// markProbe records an active probe result under the FailAfter threshold;
// datasets is the count from a successful probe's /healthz body.
func (s *shardState) markProbe(failAfter int, err error, datasets int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.st.LastProbe = time.Now()
	if err == nil {
		s.st.Healthy = true
		s.st.ConsecutiveFailures = 0
		s.st.LastError = ""
		s.st.Datasets = datasets
		return
	}
	s.st.ConsecutiveFailures++
	s.st.LastError = err.Error()
	if s.st.ConsecutiveFailures >= failAfter {
		s.st.Healthy = false
	}
}

// markUnreachable is the passive path: a proxied request just failed at the
// transport layer, so the shard is down now, threshold or not.
func (s *shardState) markUnreachable(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.st.Healthy = false
	s.st.ConsecutiveFailures = max(s.st.ConsecutiveFailures, 1)
	s.st.LastError = err.Error()
}

// probeLoop runs until Close; each tick probes every shard in parallel.
func (rt *Router) probeLoop() {
	t := time.NewTicker(rt.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-t.C:
			rt.ProbeNow(context.Background())
		}
	}
}

// ProbeNow probes every shard once, synchronously. The rebalancer calls it
// before planning so placement decisions see the cluster as it is, not as
// it was one probe interval ago.
func (rt *Router) ProbeNow(ctx context.Context) {
	parallel(rt.shards, func(_ int, sh *shardState) { rt.probeShard(ctx, sh) })
}

// probeShard performs one /healthz round-trip against a shard and feeds the
// result through the failure threshold.
func (rt *Router) probeShard(ctx context.Context, sh *shardState) {
	timeout := rt.cfg.ProbeInterval
	if timeout <= 0 || timeout > 2*time.Second {
		timeout = 2 * time.Second
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()

	rt.count(&rt.m.Probes, 1)
	datasets, err := rt.fetchHealth(ctx, sh.url)
	if err != nil {
		rt.count(&rt.m.ProbeFailures, 1)
	}
	sh.markProbe(rt.cfg.FailAfter, err, datasets)
}

// fetchHealth GETs a shard's readiness endpoint and extracts its dataset
// count. Any non-200 status — including 503 "draining" — is a probe failure.
func (rt *Router) fetchHealth(ctx context.Context, shardURL string) (datasets int, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, shardURL+"/healthz", nil)
	if err != nil {
		return 0, err
	}
	resp, err := rt.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, errStatus(resp)
	}
	var hr service.HealthResponse
	if derr := json.NewDecoder(resp.Body).Decode(&hr); derr == nil {
		datasets = hr.Datasets
	}
	return datasets, nil
}
