package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"rqm"
	"rqm/client"
	"rqm/internal/router"
	"rqm/internal/service"
	"rqm/internal/store"
)

// Every dataset is written at this bound.
const (
	relBound   = 1e-3
	targetPSNR = 60.0
	opTimeout  = 60 * time.Second
)

// slot is the harness's record of one dataset name it owns: which variant
// the system should now hold, and the bound it was stored at. It is the
// oracle's reference.
type slot struct {
	name  string
	field int
	ct    content
	bound float64 // absolute bound of the stored lossy data
	// archive-mixed: the cached profile id model ops ask about.
	profile string
	// insitu-library: the compressed container (the "stored artifact"), the
	// codec that wrote it, and the bound a model op solved for the next
	// write of pending content.
	out          bytes.Buffer
	codec        string
	pending      content
	pendingBound float64
}

// serverTarget drives archive clients against in-process servers over
// loopback TCP: one rqserved, or three behind rqrouter.
type serverTarget struct {
	w     *workload
	cfg   config
	corp  *corpus
	rec   *recorder
	stop  []func()
	store []*store.Store
	svc   []*service.Service
	rt    *router.Router
	hc    *http.Client
	// front is what the load generator talks to (the server, or the
	// router); compute answers the shard-local /v1/profile and /v1/estimate
	// (the router does not route them).
	front, compute *client.Client
	slots          [][]*slot // [client][field*variants+variant]
}

// newServerTarget starts the servers under dir and seeds the archive: every
// name a client owns gets an initial variant, and on archive-mixed a cached
// profile.
func newServerTarget(w *workload, cfg config, corp *corpus, rec *recorder, dir string) (*serverTarget, error) {
	t := &serverTarget{w: w, cfg: cfg, corp: corp, rec: rec}
	shards := 1
	if w.cluster {
		shards = 3
	}
	var urls []string
	for i := 0; i < shards; i++ {
		st, err := store.Open(filepath.Join(dir, fmt.Sprintf("shard%d", i)))
		if err != nil {
			t.close()
			return nil, err
		}
		eng, err := rqm.NewEngine(rqm.WithConcurrency(streamWorkers))
		if err != nil {
			t.close()
			return nil, err
		}
		svc, err := service.New(service.Config{Engine: eng, Store: st})
		if err != nil {
			t.close()
			return nil, err
		}
		var h http.Handler = svc
		if cfg.wrapShard != nil {
			h = cfg.wrapShard(h)
		}
		ts := httptest.NewServer(rec.handler("shard.serve", depthShard, h))
		t.stop = append(t.stop, ts.Close)
		t.store = append(t.store, st)
		t.svc = append(t.svc, svc)
		urls = append(urls, ts.URL)
	}
	frontURL := urls[0]
	if w.cluster {
		rt, err := router.New(router.Config{Shards: urls, Replicas: 2, ProbeInterval: -1})
		if err != nil {
			t.close()
			return nil, err
		}
		t.rt = rt
		fs := httptest.NewServer(rec.handler("router.serve", depthRouter, rt))
		t.stop = append(t.stop, fs.Close, rt.Close)
		frontURL = fs.URL
	}
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = 8
	t.stop = append(t.stop, tr.CloseIdleConnections)
	t.hc = &http.Client{Transport: rec.transport(tr)}
	var err error
	// No retries: a refused request must surface as a failed op.
	if t.front, err = t.newClient(frontURL); err != nil {
		t.close()
		return nil, err
	}
	if t.compute, err = t.newClient(urls[0]); err != nil {
		t.close()
		return nil, err
	}
	if err := t.seed(); err != nil {
		t.close()
		return nil, err
	}
	return t, nil
}

func (t *serverTarget) newClient(url string) (*client.Client, error) {
	return client.New(url, client.WithHTTPClient(t.hc), client.WithRetry(1, time.Millisecond))
}

func (t *serverTarget) seed() error {
	t.slots = make([][]*slot, t.w.clients)
	errs := make([]error, t.w.clients)
	var wg sync.WaitGroup
	for c := 0; c < t.w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cs := &clientState{id: c}
			for f := range t.w.fields {
				for v := 0; v < t.w.variants; v++ {
					sl := &slot{name: slotName(t.w, c, f, v), field: f}
					t.slots[c] = append(t.slots[c], sl)
					ct := t.corp.newContent(f, key(t.cfg.seed, uint64(c), uint64(f), uint64(v), 0x5eed))
					if _, err := t.put(cs, op{Seq: -1}, sl, ct); err != nil {
						errs[c] = fmt.Errorf("seeding %s: %w", sl.name, err)
						return
					}
					if !t.w.exact && !t.w.cluster {
						ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
						pr, err := t.compute.Profile(ctx, bytes.NewReader(cs.req), client.ProfileParams{})
						cancel()
						if err != nil {
							errs[c] = fmt.Errorf("profiling %s: %w", sl.name, err)
							return
						}
						sl.profile = pr.Profile
					}
				}
			}
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (t *serverTarget) slot(o op) *slot {
	return t.slots[o.Client][o.Field*t.w.variants+o.Variant]
}

func (t *serverTarget) fieldBytes(field int) int64 { return t.corp.fields[field].OriginalBytes() }

// put writes one variant under the slot's name and records what the system
// now holds. The request body is built before the clock starts.
func (t *serverTarget) put(cs *clientState, o op, sl *slot, ct content) (time.Duration, error) {
	cs.req = t.corp.encode(cs.req, sl.field, ct)
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	var info *client.DatasetInfo
	lat, err := timeOp(t.rec, o, func() (err error) {
		info, err = t.front.PutDataset(ctx, sl.name, bytes.NewReader(cs.req), client.PutDatasetParams{
			Mode: "rel", ErrorBound: relBound, ChunkValues: t.cfg.chunk, Exact: t.w.exact,
		})
		return err
	})
	if err != nil {
		return lat, err
	}
	if want := int64(t.corp.fields[sl.field].Len()); info.TotalValues != want {
		return lat, fmt.Errorf("put stored %d values, want %d", info.TotalValues, want)
	}
	if info.Exact != t.w.exact {
		return lat, fmt.Errorf("put exact=%v, want %v", info.Exact, t.w.exact)
	}
	sl.ct = ct
	sl.bound = info.ErrorBound * t.corp.valueRange(sl.field, ct)
	return lat, nil
}

func (t *serverTarget) do(cs *clientState, o op) (time.Duration, int64, error) {
	sl := t.slot(o)
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	switch o.Verb {
	case vWrite:
		lat, err := t.put(cs, o, sl, o.Content)
		return lat, t.fieldBytes(sl.field), err

	case vRead:
		cs.resp.Reset()
		lat, err := timeOp(t.rec, o, func() error {
			if t.w.exact {
				return t.front.GetDatasetExact(ctx, sl.name, &cs.resp)
			}
			return t.front.GetDataset(ctx, sl.name, &cs.resp)
		})
		if err == nil {
			err = t.check(cs.resp.Bytes(), sl, 0, t.corp.fields[sl.field].Len(), true)
		}
		return lat, t.fieldBytes(sl.field), err

	case vSlice:
		cs.resp.Reset()
		n := int64(t.cfg.sliceLen)
		lat, err := timeOp(t.rec, o, func() error {
			if t.w.exact {
				return t.front.SliceDatasetExact(ctx, sl.name, o.Off, n, &cs.resp)
			}
			return t.front.SliceDataset(ctx, sl.name, o.Off, n, &cs.resp)
		})
		if err == nil {
			err = t.check(cs.resp.Bytes(), sl, int(o.Off), t.cfg.sliceLen, false)
		}
		return lat, n * int64(t.corp.fields[sl.field].Prec.Bits()/8), err

	case vModel:
		lat, err := t.model(ctx, sl, o)
		return lat, 0, err

	case vTier:
		// Drop the residual layer, then re-install it from the original.
		cs.req = t.corp.encode(cs.req, sl.field, sl.ct)
		lat, err := timeOp(t.rec, o, func() error {
			info, err := t.front.DemoteDataset(ctx, sl.name)
			if err != nil {
				return err
			}
			if info.Exact {
				return errors.New("demote left the dataset exact")
			}
			if info, err = t.front.PromoteDataset(ctx, sl.name, bytes.NewReader(cs.req)); err != nil {
				return err
			}
			if !info.Exact {
				return errors.New("promote left the dataset lossy")
			}
			return nil
		})
		return lat, t.fieldBytes(sl.field), err
	}
	return 0, 0, fmt.Errorf("unknown verb %d", o.Verb)
}

// model asks the workload's ratio/quality question and checks the answer is
// finite: a cached estimate or solve (archive-mixed), a model-guided
// recompaction (archive-exact), or the manifest's stored answer (cluster).
func (t *serverTarget) model(ctx context.Context, sl *slot, o op) (time.Duration, error) {
	var answers []float64
	lat, err := timeOp(t.rec, o, func() error {
		switch {
		case t.w.exact:
			psnr := 50.0
			if o.Alt%2 == 1 {
				psnr = 70
			}
			rr, err := t.front.RecompactDataset(ctx, sl.name, client.SolveTarget{Kind: "psnr", Value: psnr})
			if err != nil {
				return err
			}
			if rr.Skipped {
				return fmt.Errorf("recompaction skipped: %s", rr.Reason)
			}
			sl.bound = rr.NewBound
			answers = []float64{rr.NewBound, rr.NewRatio, float64(rr.EstPSNR)}
		case t.w.cluster:
			info, err := t.front.StatDataset(ctx, sl.name)
			if err != nil {
				return err
			}
			answers = []float64{info.Ratio, float64(info.EstPSNR)}
		case o.Alt%2 == 0:
			er, err := t.front.Estimate(ctx, sl.profile, relBound, "rel")
			if err != nil {
				return err
			}
			answers = []float64{float64(er.Ratio), float64(er.PSNR), er.BitRate}
		default:
			sr, err := t.front.Solve(ctx, sl.profile, client.SolveTarget{Kind: "psnr", Value: targetPSNR})
			if err != nil {
				return err
			}
			answers = []float64{sr.AbsEB, float64(sr.Ratio), float64(sr.PSNR)}
		}
		return nil
	})
	if err != nil {
		return lat, err
	}
	for _, a := range answers {
		if math.IsNaN(a) || math.IsInf(a, 0) || a <= 0 {
			return lat, fmt.Errorf("model answered %v", answers)
		}
	}
	return lat, nil
}

// check is the correctness oracle for a read or slice response: shape and
// value count match, and every value is within the recorded bound of the
// harness's own copy (bit-identical on the exact tier).
func (t *serverTarget) check(body []byte, sl *slot, off, n int, whole bool) error {
	base := t.corp.fields[sl.field]
	prec, dims, at, got, err := decodeRQMF(body)
	if err != nil {
		return err
	}
	if prec != base.Prec {
		return fmt.Errorf("precision %d, want %d", prec.Bits(), base.Prec.Bits())
	}
	if got != n {
		return fmt.Errorf("%d values, want %d", got, n)
	}
	if whole && !slices.Equal(dims, base.Dims) {
		return fmt.Errorf("dims %v, want %v", dims, base.Dims)
	}
	return checkValues(func(i int) float64 { return t.corp.at(sl.field, sl.ct, off+i) }, at, n, sl.bound, t.w.exact)
}

// checkValues compares n values. The lossy tolerance adds half a float32
// ulp of slack: servers return values rounded to the field's precision.
func checkValues(want, got func(int) float64, n int, bound float64, exact bool) error {
	for i := 0; i < n; i++ {
		w, g := want(i), got(i)
		if exact {
			if math.Float64bits(w) != math.Float64bits(g) {
				return fmt.Errorf("value %d is %v, want %v bit for bit", i, g, w)
			}
			continue
		}
		if d := math.Abs(w - g); !(d <= bound*(1+1e-9)+math.Abs(w)*6e-8) {
			return fmt.Errorf("value %d is %v, want %v within %v (off by %v)", i, g, w, bound, d)
		}
	}
	return nil
}

// audit compares, for client 0's first two variants of every field, the
// model's estimate with what was delivered: ratio from a fresh profile's
// /v1/estimate at the stored bound against the manifest's achieved ratio,
// and the manifest's stored PSNR estimate against the PSNR measured on the
// lossy read-back.
func (t *serverTarget) audit() (ratioErr, psnrErr []float64, err error) {
	cs := &clientState{}
	ctx, cancel := context.WithTimeout(context.Background(), 2*opTimeout)
	defer cancel()
	for f := range t.w.fields {
		for v := 0; v < 2 && v < t.w.variants && len(ratioErr) < 8; v++ {
			sl := t.slots[0][f*t.w.variants+v]
			cs.req = t.corp.encode(cs.req, sl.field, sl.ct)
			pr, err := t.compute.Profile(ctx, bytes.NewReader(cs.req), client.ProfileParams{})
			if err != nil {
				return nil, nil, fmt.Errorf("audit profile %s: %w", sl.name, err)
			}
			est, err := t.compute.Estimate(ctx, pr.Profile, sl.bound, "abs")
			if err != nil {
				return nil, nil, fmt.Errorf("audit estimate %s: %w", sl.name, err)
			}
			info, err := t.front.StatDataset(ctx, sl.name)
			if err != nil {
				return nil, nil, fmt.Errorf("audit stat %s: %w", sl.name, err)
			}
			cs.resp.Reset()
			if err := t.front.GetDataset(ctx, sl.name, &cs.resp); err != nil {
				return nil, nil, fmt.Errorf("audit read %s: %w", sl.name, err)
			}
			_, _, at, n, err := decodeRQMF(cs.resp.Bytes())
			if err != nil || n != t.corp.fields[sl.field].Len() {
				return nil, nil, fmt.Errorf("audit read %s: %d values: %v", sl.name, n, err)
			}
			sse := 0.0
			for i := 0; i < n; i++ {
				d := at(i) - t.corp.at(sl.field, sl.ct, i)
				sse += d * d
			}
			measured := psnrOf(t.corp.valueRange(sl.field, sl.ct), sse/float64(n))
			ratioErr = append(ratioErr, 100*math.Abs(float64(est.Ratio)-info.Ratio)/info.Ratio)
			psnrErr = append(psnrErr, math.Abs(float64(info.EstPSNR)-measured))
		}
	}
	return ratioErr, psnrErr, nil
}

// psnrOf is the paper's Eq. 12: 20 log10(range) - 10 log10(mse).
func psnrOf(valueRange, mse float64) float64 {
	return 20*math.Log10(valueRange) - 10*math.Log10(mse)
}

func (t *serverTarget) stored() (held, live int64) {
	for _, st := range t.store {
		b, _ := st.Bytes()
		held += b
	}
	for _, cl := range t.slots {
		for _, sl := range cl {
			live += t.fieldBytes(sl.field)
		}
	}
	return held, live
}

func (t *serverTarget) counters() map[string]float64 {
	c := map[string]float64{}
	for i, svc := range t.svc {
		s := svc.Snapshot()
		c["service.requests"] += float64(s.Requests)
		c["service.rejected"] += float64(s.Rejected)
		c["service.profile_builds"] += float64(s.ProfileBuilds)
		c["service.model_cached"] += float64(s.ProfileHits + s.Estimates + s.Solves)
		c["service.slices"] += float64(s.SliceReads)
		c["store.chunk_reads"] += float64(t.store[i].ChunkReads())
		c["store.writes"] += float64(t.store[i].Writes())
		c["store.residual_bytes"] += float64(t.store[i].ResidualBytes())
	}
	if t.rt != nil {
		m := t.rt.Snapshot()
		c["router.requests"] = float64(m.Requests)
		c["router.failovers"] = float64(m.Failovers)
		c["router.read_repairs"] = float64(m.ReadRepairs)
	}
	return c
}

// close stops every server and releases pooled connections; it waits for
// the listeners' goroutines (httptest.Server.Close blocks until requests
// have drained).
func (t *serverTarget) close() {
	for i := len(t.stop) - 1; i >= 0; i-- {
		t.stop[i]()
	}
	t.stop = nil
}
