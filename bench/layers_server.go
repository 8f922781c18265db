package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"rqm"
	"rqm/client"
	"rqm/internal/grid"
	"rqm/internal/residual"
	"rqm/internal/router"
	"rqm/internal/service"
	"rqm/internal/store"
)

// countingFS is a store.ReadFS that counts the bytes read through it.
type countingFS struct{ n atomic.Int64 }

func (c *countingFS) Open(path string) (io.ReadSeekCloser, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, n: &c.n}, nil
}

func (c *countingFS) ReadFile(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	c.n.Add(int64(len(data)))
	return data, err
}

type countingFile struct {
	*os.File
	n *atomic.Int64
}

func (f *countingFile) Read(p []byte) (int, error) {
	n, err := f.File.Read(p)
	f.n.Add(int64(n))
	return n, err
}

// sliceOffsets are the seeded offsets the store's range reads use.
func (lp *layerPass) sliceOffsets(field, n int) []int64 {
	span := lp.corp.fields[field].Len() - lp.cfg.sliceLen + 1
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(unit(mix64(key(lp.cfg.seed, uint64(field), uint64(i), 0x51ce))) * float64(span))
	}
	return out
}

// storeAndServiceLayers measures the store and the service from outside on
// a store of their own, and the same operations called directly (grid +
// core + stream + store, no HTTP), whose total is what service.overhead_ms
// subtracts from the handler span of the same verb.
func (lp *layerPass) storeAndServiceLayers() error {
	st, err := store.Open(filepath.Join(lp.dir, "layers", "store"))
	if err != nil {
		return err
	}
	eng, err := rqm.NewEngine(rqm.WithConcurrency(streamWorkers))
	if err != nil {
		return err
	}
	svc, err := service.New(service.Config{Engine: eng, Store: st})
	if err != nil {
		return err
	}
	ts := httptest.NewServer(svc)
	defer ts.Close()
	cl, err := client.New(ts.URL, client.WithRetry(1, time.Millisecond))
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	nf := len(lp.corp.fields)
	names := make([]string, nf)
	bodies := make([][]byte, nf)
	manifests := make([]*store.Manifest, nf)
	identity := content{A: 1}
	for i, sp := range lp.w.fields {
		names[i] = "layer-" + sp.tag
		bodies[i] = lp.corp.encode(nil, i, identity)
	}

	// Direct write, in the handler's own steps: parse + hash the body,
	// profile once, stream-compress into a crash-safe put.
	step := func(verb, name string, d time.Duration) {
		if lp.direct[verb] == nil {
			lp.direct[verb] = map[string]float64{}
		}
		lp.direct[verb][name] += ms(d) / float64(nf)
	}
	var putBytes int64
	var putTime, commitTime time.Duration
	for i := range lp.corp.fields {
		var f *rqm.Field
		var p *rqm.Profile
		var sum string
		parse, err := lp.timed("grid.read", heavyReps, func() (err error) {
			h := sha256.New()
			f, err = grid.ReadFrom(io.TeeReader(bytes.NewReader(bodies[i]), h))
			sum = hex.EncodeToString(h.Sum(nil))
			return err
		})
		if err != nil {
			return err
		}
		f.Name = names[i]
		profile, err := lp.timed("core.profile_cold", heavyReps, func() (err error) { p, err = eng.Profile(f); return err })
		if err != nil {
			return err
		}
		build := func(cw io.Writer) (*store.Manifest, error) {
			bw := bufio.NewWriterSize(cw, 1<<20)
			if err := lp.streamWrite(bw, streamWorkers, f); err != nil {
				return nil, err
			}
			return &store.Manifest{
				CreatedAt: time.Now().UTC(), PrecBits: f.Prec.Bits(), Dims: f.Dims,
				Codec: eng.Codec().Name(), Predictor: "lorenzo", Mode: "rel", ErrorBound: relBound,
				ContentHash: sum, OriginalBytes: f.OriginalBytes(),
				EstPSNR: p.EstimateAt(lp.absBound(i)).PSNR, Profile: store.NewProfileRecord(p),
			}, bw.Flush()
		}
		put, err := lp.timed("store.put_stream", heavyReps, func() (err error) {
			if lp.obs.residual {
				manifests[i], err = st.PutWithResidual(names[i], build, store.BuildResidual(f.Data, f.Prec, residual.DefaultBackend))
			} else {
				manifests[i], err = st.Put(names[i], build)
			}
			return err
		})
		if err != nil {
			return err
		}
		putBytes += f.OriginalBytes()
		putTime += put
		step("write", "grid.read+sha256", parse)
		step("write", "core.profile_cold", profile)
		step("write", "store.put_stream", put)

		// Commit only: the container is already built, so a put is stage +
		// fsync + rename.
		path, err := st.ContainerPath(names[i])
		if err != nil {
			return err
		}
		blob, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		commit, err := lp.timed("store.put_commit", heavyReps, func() error {
			tmpl := *manifests[i]
			tmpl.Residual = nil
			_, err := st.Put("commit-"+lp.w.fields[i].tag, func(w io.Writer) (*store.Manifest, error) {
				_, err := w.Write(blob)
				return &tmpl, err
			})
			return err
		})
		if err != nil {
			return err
		}
		commitTime += commit
	}
	lp.m["store.put_stream_mb_s"] = mbps(putBytes, putTime)
	lp.m["store.put_commit_ms"] = ms(commitTime) / float64(nf)

	// Range reads at seeded offsets, counting what the store decodes and
	// reads from disk to return one slice. The counts repeat exactly for a
	// seed.
	var (
		fs                     countingFS
		parseT, rangeT, exactT time.Duration
		slices, chunks         int
		decoded, readBytes     int64
	)
	st.SetReadFS(&fs)
	sliceLen := int64(lp.cfg.sliceLen)
	for i := range lp.corp.fields {
		d, err := lp.timed("store.manifest", lightReps, func() error { _, err := st.Manifest(names[i]); return err })
		if err != nil {
			return err
		}
		parseT += d
		m := manifests[i]
		offs := lp.sliceOffsets(i, lightReps)
		k := 0
		next := func() int64 { k++; return offs[k%len(offs)] }

		before := fs.n.Load()
		if d, err = lp.timed("store.read_range", lightReps, func() error {
			off := next()
			slices++
			start := int64(0)
			for _, e := range m.IndexEntries() {
				if end := start + int64(e.Values); end > off && start < off+sliceLen {
					decoded += int64(e.Values)
					chunks++
				}
				start += int64(e.Values)
			}
			_, err := st.ReadRangeWith(m, off, sliceLen)
			return err
		}); err != nil {
			return err
		}
		rangeT += d
		readBytes += fs.n.Load() - before

		if lp.obs.residual {
			if d, err = lp.timed("store.read_range_exact", lightReps, func() error {
				_, err := st.ReadRangeExact(m, next(), sliceLen)
				return err
			}); err != nil {
				return err
			}
			exactT += d
		}
		// The slice handler's own steps: manifest, range read, a 1-D field
		// serialized to the response.
		if d, err = lp.timed("direct.slice", lightReps, func() error {
			mm, err := st.Manifest(names[i])
			if err != nil {
				return err
			}
			var vals []float64
			if lp.obs.residual {
				vals, err = st.ReadRangeExact(mm, next(), sliceLen)
			} else {
				vals, err = st.ReadRangeWith(mm, next(), sliceLen)
			}
			if err != nil {
				return err
			}
			sf, err := grid.FromData(mm.Name, mm.Prec(), vals, len(vals))
			if err != nil {
				return err
			}
			_, err = sf.WriteTo(io.Discard)
			return err
		}); err != nil {
			return err
		}
		step("slice", "store.manifest+read_range+grid.write", d)
	}
	st.SetReadFS(nil)
	lp.m["store.manifest_parse_us"] = us(parseT) / float64(nf)
	lp.m["store.read_range_ms"] = ms(rangeT) / float64(nf)
	lp.m["store.read_range_exact_ms"] = ms(exactT) / float64(nf)
	lp.m["store.chunks_per_slice"] = float64(chunks) / float64(slices)
	lp.m["store.decoded_per_returned"] = float64(int64(slices)*sliceLen) / float64(decoded)
	lp.m["store.read_bytes_per_read"] = float64(readBytes) / float64(slices)

	// Whole reads, verification and scrub.
	var total int64
	var shallowT, deepT time.Duration
	for i, f := range lp.corp.fields {
		total += f.OriginalBytes()
		d, err := lp.timed("store.verify_shallow", heavyReps, func() error { return st.VerifyDataset(names[i], false) })
		if err != nil {
			return err
		}
		shallowT += d
		if d, err = lp.timed("store.verify_deep", heavyReps, func() error { return st.VerifyDataset(names[i], true) }); err != nil {
			return err
		}
		deepT += d
		read, err := lp.timed("direct.read", heavyReps, func() error {
			if err := st.VerifyDataset(names[i], false); err != nil {
				return err
			}
			if lp.obs.residual {
				m, err := st.Manifest(names[i])
				if err != nil {
					return err
				}
				vals, err := st.ReadRangeExact(m, 0, m.TotalValues)
				if err != nil {
					return err
				}
				if _, err := residual.OriginalHash(vals, m.Prec()); err != nil {
					return err
				}
				ef, err := grid.FromData(m.Name, m.Prec(), vals, m.Dims...)
				if err != nil {
					return err
				}
				_, err = ef.WriteTo(io.Discard)
				return err
			}
			path, err := st.ContainerPath(names[i])
			if err != nil {
				return err
			}
			cf, err := os.Open(path)
			if err != nil {
				return err
			}
			defer cf.Close()
			sr, err := rqm.NewReader(bufio.NewReaderSize(cf, 1<<20))
			if err != nil {
				return err
			}
			defer sr.Close()
			hdr := sr.Header()
			if _, err := grid.WriteHeader(io.Discard, hdr.Prec, hdr.Dims); err != nil {
				return err
			}
			_, err = io.Copy(io.Discard, sr)
			return err
		})
		if err != nil {
			return err
		}
		step("read", "store.verify_shallow+stream.read", read)
	}
	lp.m["store.verify_shallow_mb_s"] = mbps(total, shallowT)
	lp.m["store.verify_deep_mb_s"] = mbps(total, deepT)
	var held int64
	d, err := lp.timed("store.scrub", heavyReps, func() error {
		rep, err := st.Scrub(store.ScrubOptions{})
		if err != nil {
			return err
		}
		if len(rep.Issues) != 0 {
			return fmt.Errorf("scrub found issues on a clean archive: %+v", rep.Issues)
		}
		return nil
	})
	if err != nil {
		return err
	}
	all, err := st.List()
	if err != nil {
		return err
	}
	for _, m := range all {
		held += m.OriginalBytes
	}
	lp.m["store.scrub_mb_s"] = mbps(held, d)

	return lp.serviceLayer(ctx, svc, cl, names[0], bodies)
}

// serviceLayer times the service from outside: one hop, a stat, a cached
// estimate, a cold profile.
func (lp *layerPass) serviceLayer(ctx context.Context, svc *service.Service, cl *client.Client, name string, bodies [][]byte) error {
	pr, err := cl.Profile(ctx, bytes.NewReader(bodies[0]), client.ProfileParams{})
	if err != nil {
		return err
	}
	for _, c := range []struct {
		metric string
		fn     func() error
	}{
		{"service.hop_us", func() error { _, err := cl.Health(ctx); return err }},
		{"service.stat_us", func() error { _, err := cl.StatDataset(ctx, name); return err }},
		{"service.estimate_us", func() error { _, err := cl.Estimate(ctx, pr.Profile, relBound, "rel"); return err }},
	} {
		d, err := lp.timed(strings.TrimSuffix(c.metric, "_us"), 4*lightReps, c.fn)
		if err != nil {
			return err
		}
		lp.m[c.metric] = us(d)
	}
	var coldT time.Duration
	for i := range lp.corp.fields {
		d, err := lp.timed("service.profile_cold", heavyReps, func() error {
			svc.FlushProfiles()
			_, err := cl.Profile(ctx, bytes.NewReader(bodies[i]), client.ProfileParams{})
			return err
		})
		if err != nil {
			return err
		}
		coldT += d
	}
	lp.m["service.profile_cold_ms"] = ms(coldT) / float64(len(bodies))
	return nil
}

// downSwitch makes a shard answer 503 to everything while down is set: the
// harness's way of holding a shard out of the cluster.
type downSwitch struct {
	down atomic.Bool
	next http.Handler
}

func (d *downSwitch) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if d.down.Load() {
		http.Error(w, "held down by the harness", http.StatusServiceUnavailable)
		return
	}
	d.next.ServeHTTP(w, r)
}

// routerLayer measures the cluster tier on a cluster of its own (so the
// replayed cluster's failover and repair counters stay untouched): the
// proxy hop against a direct read from the holder, the recompaction's
// replica sync, and a rebalance after a shard missed a write.
func (lp *layerPass) routerLayer() error {
	rec := lp.rec
	var urls []string
	var switches []*downSwitch
	var shards []*client.Client
	for i := 0; i < 3; i++ {
		st, err := store.Open(filepath.Join(lp.dir, "layers", fmt.Sprintf("rshard%d", i)))
		if err != nil {
			return err
		}
		eng, err := rqm.NewEngine(rqm.WithConcurrency(streamWorkers))
		if err != nil {
			return err
		}
		svc, err := service.New(service.Config{Engine: eng, Store: st})
		if err != nil {
			return err
		}
		sw := &downSwitch{next: svc}
		ts := httptest.NewServer(rec.handler("shard.serve", depthShard, sw))
		defer ts.Close()
		cl, err := client.New(ts.URL, client.WithRetry(1, time.Millisecond))
		if err != nil {
			return err
		}
		urls, switches, shards = append(urls, ts.URL), append(switches, sw), append(shards, cl)
	}
	rt, err := router.New(router.Config{Shards: urls, Replicas: 2, ProbeInterval: -1, FailAfter: 1})
	if err != nil {
		return err
	}
	defer rt.Close()
	front := httptest.NewServer(rec.handler("router.serve", depthRouter, rt))
	defer front.Close()
	cl, err := client.New(front.URL, client.WithRetry(1, time.Millisecond))
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	const name = "layer-routed"
	body := lp.corp.encode(nil, 0, content{A: 1})
	params := client.PutDatasetParams{Mode: "rel", ErrorBound: relBound, ChunkValues: lp.cfg.chunk}
	if _, err := cl.PutDataset(ctx, name, bytes.NewReader(body), params); err != nil {
		return err
	}
	holder := -1
	for i, sh := range shards {
		if _, err := sh.StatDataset(ctx, name); err == nil {
			holder = i
			break
		}
	}
	if holder < 0 {
		return errors.New("router layer: no shard holds the routed dataset")
	}
	var sink bytes.Buffer
	get := func(c *client.Client) func() error {
		return func() error { sink.Reset(); return c.GetDataset(ctx, name, &sink) }
	}
	// Alternate the two paths so drift hits both alike.
	var via, directT []time.Duration
	for i := 0; i < lightReps; i++ {
		d, err := lp.timed("router.read_direct", 1, get(shards[holder]))
		if err != nil {
			return err
		}
		directT = append(directT, d)
		if d, err = lp.timed("router.read_proxied", 1, get(cl)); err != nil {
			return err
		}
		via = append(via, d)
	}
	lp.m["router.proxy_overhead_ms"] = ms(medianDur(via) - medianDur(directT))

	// Recompaction runs on one replica; the router then raw-syncs the
	// rewritten container to its peer. The sync is the router span minus
	// the recompacting shard's span.
	first := len(rec.spans)
	if _, err := cl.RecompactDataset(ctx, name, client.SolveTarget{Kind: "psnr", Value: 40}); err != nil {
		return err
	}
	for _, sp := range rec.spans[first:] {
		if sp.Name != "router.serve" {
			continue
		}
		sync := sp.End - sp.Start
		for _, ch := range rec.spans[first:] {
			if ch.Name == "shard.serve" && ch.Start >= sp.Start && ch.End <= sp.End {
				sync -= ch.End - ch.Start // the first child is the recompaction itself
				break
			}
		}
		lp.m["router.recompact_sync_ms"] = float64(sync) / 1e6
	}

	// Rebalance: hold the holder down, write a new version (a stand-in
	// replica takes it), heal, and let rebalance bring the holder up to
	// date and drop the stray copy.
	switches[holder].down.Store(true)
	rt.ProbeNow(ctx)
	if _, err := cl.PutDataset(ctx, name, bytes.NewReader(body), params); err != nil {
		return fmt.Errorf("router layer: put with a shard down: %w", err)
	}
	switches[holder].down.Store(false)
	var rep *router.RebalanceReport
	d, err := lp.timed("router.rebalance", 1, func() (err error) { rep, err = rt.Rebalance(ctx); return err })
	if err != nil {
		return err
	}
	if rep.Copied == 0 || rep.Failed != 0 {
		return fmt.Errorf("router layer: rebalance report %+v", *rep)
	}
	lp.m["router.rebalance_mb_s"] = mbps(rep.BytesMoved, d)
	return nil
}
