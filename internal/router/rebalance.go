package router

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net/http"
	"slices"
	"sync/atomic"

	"rqm/internal/service"
	"rqm/internal/store"
)

// The rebalance pass restores the placement invariant after shards die,
// rejoin, or are added: every dataset on its R ring-desired shards, at the
// newest version, with stray copies removed. It moves container bytes
// verbatim — the source serves its raw-put frame (GET
// /v1/datasets/{name}/raw: full manifest, container, residual) and the
// target's POST /v1/datasets/{name}/raw re-stages those bytes preserving
// created_at/generation/content_hash, so a migration never decompresses or
// recompresses anything and replicas stay bit-identical. Divergent copies
// are arbitrated by manifest version order ((created_at, generation), the
// store's CAS key): the newest live copy is authoritative, older ones are
// overwritten, and a target that turns out newer than our listing wins via
// the raw endpoint's own 409.

// RebalanceReport is the POST /v1/cluster/rebalance response body.
type RebalanceReport struct {
	ShardsLive int `json:"shards_live"`
	// Datasets is the number of distinct dataset names seen across live
	// shards.
	Datasets int `json:"datasets"`
	// Copied counts raw container migrations that stored bytes on a target.
	Copied int `json:"copied"`
	// Skipped counts idempotent no-ops: the target already held the exact
	// version (same created_at/generation/content_hash).
	Skipped int `json:"skipped"`
	// Conflicts counts targets that refused a copy because they held a
	// strictly newer version than the chosen source (the target wins).
	Conflicts int `json:"conflicts"`
	// Removed counts stray copies deleted from shards outside the desired
	// replica set (only after every desired replica held a current copy).
	Removed int `json:"removed"`
	// Failed counts copy or removal attempts that errored.
	Failed int `json:"failed"`
	// BytesMoved is the total raw-put frame bytes streamed between shards:
	// manifest, container and residual.
	BytesMoved int64 `json:"bytes_moved"`
}

// replicaCopy is one shard's copy of a dataset, as seen in its listing.
type replicaCopy struct {
	sh   *shardState
	info service.DatasetInfo
}

// Rebalance re-probes the fleet, inventories every live shard, and repairs
// placement dataset by dataset. It is safe to run at any time and
// idempotent at the byte level: a second pass after a successful one only
// produces skips.
func (rt *Router) Rebalance(ctx context.Context) (*RebalanceReport, error) {
	rt.ProbeNow(ctx)
	rep := &RebalanceReport{}

	// Inventory: every live shard's dataset listing. A shard that fails to
	// list drops out of this pass — we neither copy from nor delete on a shard
	// whose contents we could not observe.
	occupancy, live, _ := rt.inventory(ctx)
	if rep.ShardsLive = live; live == 0 {
		return nil, fmt.Errorf("rebalance: no live shards")
	}

	names := slices.Sorted(maps.Keys(occupancy))
	rep.Datasets = len(names)

	for _, name := range names {
		copies := occupancy[name]
		auth := newest(copies)
		holds := map[*shardState]*replicaCopy{}
		for i := range copies {
			holds[copies[i].sh] = &copies[i]
		}

		// Repair the desired replica set up to the authoritative version.
		desiredSet := map[*shardState]bool{}
		var stale []*shardState
		for _, d := range rt.writeTargets(name) {
			desiredSet[d] = true
			if c, ok := holds[d]; !ok || byVersion(auth, *c) > 0 {
				stale = append(stale, d) // missing, or behind the authoritative copy
			}
		}
		fullyPlaced := true
		for _, sr := range rt.converge(ctx, name, auth.sh, stale) {
			switch {
			case sr.err != nil:
				rep.Failed++
				fullyPlaced = false
			case sr.status == http.StatusCreated:
				rep.Copied++
				rep.BytesMoved += sr.n
			case sr.status == http.StatusConflict:
				// Target holds something newer than our listing; it wins.
				rep.Conflicts++
			default: // 200: idempotent skip
				rep.Skipped++
			}
		}

		// Drop stray copies, but only once the desired set fully holds the
		// dataset — a misplaced replica is the only durable copy until then.
		if !fullyPlaced {
			continue
		}
		for _, c := range copies {
			if desiredSet[c.sh] {
				continue
			}
			if err := rt.deleteOn(ctx, c.sh, name); err != nil {
				rep.Failed++
				continue
			}
			rep.Removed++
		}
	}

	rt.count(&rt.m.Rebalances, 1)
	rt.count(&rt.m.RebalanceCopied, int64(rep.Copied))
	rt.count(&rt.m.RebalanceRemoved, int64(rep.Removed))
	rt.count(&rt.m.RebalanceBytesMoved, rep.BytesMoved)
	return rep, nil
}

// inventory lists every healthy shard at once and groups the copies found by
// dataset name; listed of the asked shards answered.
func (rt *Router) inventory(ctx context.Context) (occupancy map[string][]replicaCopy, listed, asked int) {
	healthy := healthyOf(rt.shards)
	listings := make([][]service.DatasetInfo, len(healthy))
	errs := make([]error, len(healthy))
	parallel(healthy, func(i int, sh *shardState) { listings[i], errs[i] = rt.listShard(ctx, sh) })
	occupancy = map[string][]replicaCopy{}
	for i, infos := range listings {
		if errs[i] != nil {
			continue
		}
		listed++
		for _, d := range infos {
			occupancy[d.Name] = append(occupancy[d.Name], replicaCopy{sh: healthy[i], info: d})
		}
	}
	return occupancy, listed, len(healthy)
}

// newest picks the authoritative copy: the newest by manifest version
// order, the first of equals.
func newest(copies []replicaCopy) replicaCopy { return slices.MaxFunc(copies, byVersion) }

// byVersion orders two copies by store.CompareVersions.
func byVersion(a, b replicaCopy) int {
	return store.CompareVersions(a.info.CreatedAt, a.info.Generation, b.info.CreatedAt, b.info.Generation)
}

// listShard fetches one shard's dataset listing, decoded off the wire: a
// listing has no size cap.
func (rt *Router) listShard(ctx context.Context, sh *shardState) ([]service.DatasetInfo, error) {
	resp, err := rt.fetch(ctx, sh, "/v1/datasets", "", "listing")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var lr service.ListDatasetsResponse
	if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil {
		return nil, fmt.Errorf("decode listing: %w", err)
	}
	return lr.Datasets, nil
}

// deleteOn removes name from a single shard (no fan-out; used by rebalance
// for stray copies). A 404 is success — the copy is gone either way.
func (rt *Router) deleteOn(ctx context.Context, sh *shardState, name string) error {
	res := rt.exchange(ctx, http.MethodDelete, sh, datasetPath(name), "", nil, nil)
	if res.err == nil && res.status >= 300 && res.status != http.StatusNotFound {
		res.err = fmt.Errorf("shard returned %d %s", res.status, envelopeCode(res.body))
	}
	return res.err
}

// fetch GETs path?query off src for a sync or an inventory, treating anything
// but a 200 as a failure.
func (rt *Router) fetch(ctx context.Context, src *shardState, path, query, what string) (*http.Response, error) {
	req, err := shardRequest(ctx, http.MethodGet, src, path, query, nil, nil)
	if err != nil {
		return nil, err
	}
	resp, err := rt.send(src, req)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = errStatus(resp)
		resp.Body.Close()
	}
	if err != nil {
		return nil, fmt.Errorf("fetch %s from %s: %w", what, src.url, err)
	}
	return resp, nil
}

// syncReplica copies name from src to dst byte for byte: one GET of src's
// raw-put frame (GET /v1/datasets/{name}/raw — full manifest, container,
// and the residual file when the dataset has one) piped into dst's raw-put
// endpoint with the source's Content-Length. The router neither buffers
// nor reads the frame, so a sync moves the whole quality ladder verbatim.
// Returns the frame bytes moved and the raw-put status (201
// stored/repaired, 200 skipped, 409 target-newer). A shard from before GET
// /raw answers it 405: the sync fails and is counted, so shards are
// upgraded before routers.
//
// Integrity is enforced at three points, so a sync can neither propagate
// corruption nor be fooled by it: the source shard shallow-verifies its
// copy before serving the frame (a corrupt source answers 422 and the
// sync fails instead of spreading rot); the target re-stages the streams
// and hashes them against the manifest (a copy corrupted in flight, or
// read across a commit on the source, is rejected); and the target
// re-verifies a committed same-version copy before taking the idempotent
// skip (?repair=1 — which is what lets read-repair overwrite a rotten
// replica that still claims the right version).
func (rt *Router) syncReplica(ctx context.Context, src, dst *shardState, name string) (int64, int, error) {
	frame, err := rt.fetch(ctx, src, datasetPath(name)+"/raw", "", "frame")
	if err != nil {
		return 0, 0, err
	}
	defer frame.Body.Close()
	counted := &countingReader{r: frame.Body}
	putReq, err := shardRequest(ctx, http.MethodPost, dst, datasetPath(name)+"/raw", "repair=1", nil, counted)
	if err != nil {
		return 0, 0, err
	}
	putReq.Header.Set("Content-Type", "application/octet-stream")
	putReq.ContentLength = frame.ContentLength
	putResp, err := rt.send(dst, putReq)
	if err != nil {
		return counted.n.Load(), 0, fmt.Errorf("raw put to %s: %w", dst.url, err)
	}
	defer putResp.Body.Close()
	switch putResp.StatusCode {
	case http.StatusCreated, http.StatusOK, http.StatusConflict:
		io.Copy(io.Discard, io.LimitReader(putResp.Body, errBodyLimit))
		return counted.n.Load(), putResp.StatusCode, nil
	default:
		return counted.n.Load(), putResp.StatusCode, fmt.Errorf("raw put to %s: %w", dst.url, errStatus(putResp))
	}
}

// countingReader tallies frame bytes actually streamed. The transport
// may still be reading it when the put returns, hence the atomic.
type countingReader struct {
	r io.Reader
	n atomic.Int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n.Add(int64(n))
	return n, err
}
