package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"rqm"
)

// testConfig is the smoke configuration: tiny corpus and a short op list, so
// the whole harness runs in seconds.
func testConfig(t *testing.T, ops int) config {
	return config{seed: 1, scale: rqm.ScaleTiny, chunk: 4096, sliceLen: 512, ops: ops, workDir: t.TempDir()}
}

// idle states ISSUE 11's "none on this workload" predictions by workload
// name. The harness decides what to measure from what the replay was seen to
// touch (see observed), not from this table, so each entry can fail.
var idle = map[string][]string{
	"insitu-library": {"grid.", "residual.", "store.", "service.", "client.", "router."},
	"archive-mixed":  {"transform.", "partition.quadtree", "residual.", "store.read_range_exact_ms", "router.", "tuner."},
	"archive-exact":  {"transform.", "partition.quadtree", "router.", "tuner."},
	"cluster-mixed":  {"transform.", "partition.quadtree", "residual.", "store.read_range_exact_ms", "tuner."},
}

// busy lists, per workload, metrics of the layers the workload exists to
// load: they must have been measured.
var busy = map[string][]string{
	"insitu-library": {"transform.compress_mb_s", "partition.quadtree_plan_ms", "partition.quadtree_regions", "tuner.tae_over_model_x"},
	"archive-mixed":  {"grid.read_mb_s", "store.read_range_ms", "service.serve_ms.read", "client.self_ms.slice"},
	"archive-exact":  {"residual.encode_mb_s.ans", "residual.block_read_us", "store.read_range_exact_ms", "service.serve_ms.model"},
	"cluster-mixed":  {"router.self_ms.read", "router.rebalance_mb_s", "router.put_fanout_ms", "service.serve_ms.write"},
}

// TestSmoke runs all four workloads, untraced and traced, and checks the
// report's shape and the interaction predictions that hold at any scale.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			// Nine in-situ cycles reach the first quadtree write (every 8th).
			ops := 40
			if w.library {
				ops = 81
			}
			cfg := testConfig(t, ops)
			res, err := runWorkload(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 {
				t.Fatalf("%d of %d ops failed: %v", res.Failed, res.Attempted, res.Failures)
			}
			timed := 0
			for _, n := range res.Samples {
				timed += n
			}
			if warm := res.Attempted - timed; timed-res.Samples["tier"] != w.clients*ops || warm != w.clients*warmOps(w, ops) {
				t.Errorf("%d timed and %d warm-up ops, want %d and %d", timed-res.Samples["tier"], warm, w.clients*ops, w.clients*warmOps(w, ops))
			}
			for v := vWrite; v <= vModel; v++ {
				if res.Samples[v.String()] == 0 {
					t.Errorf("no %s op ran", v)
				}
			}
			for _, d := range e2eMetrics {
				v, ok := res.Metrics[d.name]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s = %v (present %v)", d.name, v, ok)
				}
				if !d.abs && v <= 0 {
					t.Errorf("%s = %v, but BENCHMARK.json metrics must never be 0", d.name, v)
				}
			}

			tr, err := traceWorkload(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if tr.Failed != 0 {
				t.Fatalf("traced replay: %d ops failed: %v", tr.Failed, tr.Failures)
			}
			if fi, err := os.Stat(tr.SpanFile); err != nil || fi.Size() == 0 {
				t.Errorf("span file: %v", err)
			}
			for _, d := range layerMetrics {
				v := tr.Metrics[d.name]
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s = %v", d.name, v)
				}
				for _, prefix := range idle[w.name] {
					if strings.HasPrefix(d.name, prefix) && v != 0 {
						t.Errorf("%s = %v, but %s was predicted not to touch it", d.name, v, w.name)
					}
				}
			}
			for _, must := range append([]string{"core.profile_cold_ms.lorenzo", "compressor.compress_mb_s", "stream.write_mb_s.w2",
				"huffman.decode_mb_s", "codec.index_load_us", "partition.fixed_plan_us", "loadgen.ops_per_s"}, busy[w.name]...) {
				if tr.Metrics[must] <= 0 {
					t.Errorf("%s = %v", must, tr.Metrics[must])
				}
			}
			spans := strings.Join(tr.SpanNames, " ")
			if strings.Contains(spans, "router.") != w.cluster {
				t.Errorf("router spans present = %v on %s (spans: %s)", !w.cluster, w.name, spans)
			}
			if strings.Contains(spans, "shard.") == w.library {
				t.Errorf("shard spans present = %v on %s (spans: %s)", w.library, w.name, spans)
			}
			if w.cluster {
				if tr.Metrics["router.failovers"] != 0 || tr.Metrics["router.read_repairs"] != 0 {
					t.Errorf("healthy run had failovers %v, read repairs %v", tr.Metrics["router.failovers"], tr.Metrics["router.read_repairs"])
				}
			}
			if w.name == "archive-mixed" && tr.Metrics["service.profile_hit_frac"] != 1 {
				t.Errorf("service.profile_hit_frac = %v, want 1: model ops must be answered from cached profiles",
					tr.Metrics["service.profile_hit_frac"])
			}
		})
	}
}

// TestScheduleDeterministic: the seed is the only input to corpus and
// schedule generation.
func TestScheduleDeterministic(t *testing.T) {
	for _, w := range workloads {
		gen := func(seed uint64) (string, []string) {
			corp, err := buildCorpus(w.fields, seed, rqm.ScaleTiny)
			if err != nil {
				t.Fatal(err)
			}
			return describe(w, corp, 512, seed, 200), corp.hashes()
		}
		ops1, hash1 := gen(1)
		ops1b, hash1b := gen(1)
		ops2, hash2 := gen(2)
		if ops1 != ops1b || !reflect.DeepEqual(hash1, hash1b) {
			t.Errorf("%s: the same seed gave different ops or corpus", w.name)
		}
		if ops1 == ops2 || reflect.DeepEqual(hash1, hash2) {
			t.Errorf("%s: another seed gave the same ops or corpus", w.name)
		}
	}
}

// TestOpLists: the measured op lists are whole cycles, give every verb the
// sample count README.md states, and warm up on 5% of the list.
func TestOpLists(t *testing.T) {
	minimum := map[string][4]int{ // write, read, slice, model, over all clients
		"insitu-library": {200, 400, 1000, 200},
		"archive-mixed":  {200, 1000, 1000, 400},
		"archive-exact":  {60, 300, 1000, 40},
		"cluster-mixed":  {160, 800, 800, 320}, // four fifths of archive-mixed: see README.md
	}
	for _, w := range workloads {
		cycle := len(interleave(w.mix))
		if w.ops%cycle != 0 {
			t.Errorf("%s: %d ops is not whole cycles of %d", w.name, w.ops, cycle)
		}
		// 5% of the list, in whole cycles; archive-exact's 10 cycles warm up on one.
		warm := warmOps(w, w.ops)
		if warm%cycle != 0 || warm < w.ops/20 || warm >= w.ops/20+cycle {
			t.Errorf("%s: %d warm-up ops for a list of %d in cycles of %d", w.name, warm, w.ops, cycle)
		}
		// Count what the timed section of client 0's schedule really holds.
		corp := &corpus{fields: make([]*rqm.Field, len(w.fields)), lo: make([]float64, len(w.fields)), hi: make([]float64, len(w.fields))}
		for i := range corp.fields {
			corp.fields[i] = &rqm.Field{Data: make([]float64, 8192)}
		}
		s := newSchedule(w, corp, 4096, 1, 0)
		var count [nVerbs]int
		for done := 0; done < warm+w.ops; {
			o := s.next()
			if o.Verb != vTier {
				done++
			}
			if done > warm {
				count[o.Verb]++
			}
		}
		for v, n := range minimum[w.name] {
			if got := count[v] * w.clients; got < n {
				t.Errorf("%s: %d %s ops in the timed section, want at least %d", w.name, got, verb(v), n)
			}
		}
	}
}

// TestTimeCap: the op list is fixed, so a run that outlasts --seconds fails
// instead of reporting metrics of a shorter list.
func TestTimeCap(t *testing.T) {
	cfg := testConfig(t, 9)
	cfg.limit = 1 // nanosecond
	if _, err := runWorkload(workloads[0], cfg); err == nil || !strings.Contains(err.Error(), "cap") {
		t.Errorf("a run over its cap returned %v", err)
	}
}

// TestLibraryModelPrecedesWrite: in insitu-library a write compresses at
// the bound the preceding model op solved.
func TestLibraryModelPrecedesWrite(t *testing.T) {
	models := 0
	for _, v := range interleave(workloads[0].mix) {
		switch v {
		case vModel:
			models++
		case vWrite:
			if models == 0 {
				t.Fatal("write scheduled before its model op")
			}
			models--
		}
	}
}

// TestRunsRepeatExactly: two runs of the same seed report identical counts
// and identical deterministic metrics.
func TestRunsRepeatExactly(t *testing.T) {
	w := workloads[1] // archive-mixed
	var res [2]*result
	var chunks [2]float64
	for i := range res {
		cfg := testConfig(t, 30)
		var err error
		if res[i], err = runWorkload(w, cfg); err != nil {
			t.Fatal(err)
		}
		tr, err := traceWorkload(w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		chunks[i] = tr.Metrics["store.chunks_per_slice"]
	}
	a, b := res[0], res[1]
	if a.Attempted != b.Attempted || a.UserBytes != b.UserBytes || !reflect.DeepEqual(a.Samples, b.Samples) {
		t.Errorf("counts differ: %d ops %d bytes %v vs %d ops %d bytes %v", a.Attempted, a.UserBytes, a.Samples, b.Attempted, b.UserBytes, b.Samples)
	}
	for _, name := range []string{"ratio_est_accuracy_pct", "psnr_est_accuracy_pct"} {
		if a.Metrics[name] != b.Metrics[name] {
			t.Errorf("%s: %v vs %v", name, a.Metrics[name], b.Metrics[name])
		}
	}
	if chunks[0] != chunks[1] || chunks[0] <= 0 {
		t.Errorf("store.chunks_per_slice: %v vs %v", chunks[0], chunks[1])
	}
	if a.Counters["store.chunk_reads"] != b.Counters["store.chunk_reads"] || a.Counters["store.writes"] != b.Counters["store.writes"] {
		t.Errorf("store counters differ: %v vs %v", a.Counters, b.Counters)
	}
	// Manifests carry an RFC 3339 timestamp whose length varies with its
	// trailing zeros, so stored bytes repeat to a few bytes per dataset.
	sa, sb := a.Metrics["stored_bytes_per_user_byte"], b.Metrics["stored_bytes_per_user_byte"]
	if math.Abs(sa-sb) > 1e-4*sa {
		t.Errorf("stored_bytes_per_user_byte: %v vs %v", sa, sb)
	}
}

// faultInjector corrupts exactly one response of each kind it is asked to:
// the oracle must count each as a failed op and the run must go on.
type faultInjector struct {
	next            http.Handler
	pastBound, flip bool // corrupt one whole-dataset read
	refuse          bool // answer one slice with 429
	reads, slices   atomic.Int64
}

func (f *faultInjector) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	isSlice := strings.HasSuffix(r.URL.Path, "/slice")
	isRead := r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/datasets/") && !isSlice &&
		r.URL.Query().Get("manifest") == ""
	switch {
	case isSlice && f.refuse && f.slices.Add(1) == 3:
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusTooManyRequests)
		w.Write([]byte(`{"error":{"code":"overloaded","message":"injected"}}`))
	case isRead && (f.pastBound || f.flip) && f.reads.Add(1) == 3:
		rec := httptest.NewRecorder()
		f.next.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		last := body[len(body)-4:] // float32 corpus: the last sample
		bits := binary.LittleEndian.Uint32(last)
		if f.flip {
			bits ^= 1 // one mantissa bit: within any bound, but not exact
		} else {
			bits ^= 0x40000000 // an exponent bit: far past the bound
		}
		binary.LittleEndian.PutUint32(last, bits)
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.WriteHeader(rec.Code)
		w.Write(body)
	default:
		f.next.ServeHTTP(w, r)
	}
}

// TestOracleCountsFaults: a value past the bound, a flipped bit in an exact
// read and a refused request each count in fail_frac; none aborts the run.
func TestOracleCountsFaults(t *testing.T) {
	for _, c := range []struct {
		w    *workload
		inj  *faultInjector
		want int
	}{
		{workloads[1], &faultInjector{pastBound: true, refuse: true}, 2},
		{workloads[2], &faultInjector{flip: true}, 1},
	} {
		cfg := testConfig(t, 60)
		inj := c.inj
		cfg.wrapShard = func(next http.Handler) http.Handler { inj.next = next; return inj }
		res, err := runWorkload(c.w, cfg)
		if err != nil {
			t.Fatalf("%s: the run aborted: %v", c.w.name, err)
		}
		if res.Failed != c.want {
			t.Errorf("%s: %d failed ops, want %d: %v", c.w.name, res.Failed, c.want, res.Failures)
		}
		if want := float64(c.want) / float64(res.Attempted); res.Metrics["fail_frac"] != want {
			t.Errorf("%s: fail_frac %v, want %v", c.w.name, res.Metrics["fail_frac"], want)
		}
		if res.Attempted < 2*60 {
			t.Errorf("%s: only %d ops attempted: a failed op must not stop its client", c.w.name, res.Attempted)
		}
	}
}

// TestStratifiedLatency pins the latency summary on a bimodal sample.
func TestStratifiedLatency(t *testing.T) {
	var s []sample
	for i := 0; i < 100; i++ {
		s = append(s, sample{verb: vRead, stratum: 0, lat: 10e6}, sample{verb: vRead, stratum: 1, lat: 30e6})
	}
	s = append(s, sample{verb: vRead, stratum: 1, lat: 900e6, failed: true}) // failed ops carry no latency
	if got := stratifiedP50(s, vRead); got != 20 {
		t.Errorf("p50 = %v ms, want 20 (mean of the strata medians)", got)
	}
	if got := stratifiedTail(s, vRead, 0.95); got != 20 {
		t.Errorf("p95 = %v ms, want 20 (no op ran slower than typical for its stratum)", got)
	}
	if got := stratifiedP50(s, vWrite); got != 0 {
		t.Errorf("p50 of an absent verb = %v", got)
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{name: "read_p50_ms", better: "lower", bound: 0.10}
	higher := metricDef{name: "user_mb_per_s", better: "higher", bound: 0.10}
	abs := metricDef{name: "fail_frac", better: "lower", bound: 0, abs: true}
	m := func(median, spread float64) recordedMetric { return recordedMetric{Median: median, Spread: spread} }
	for _, c := range []struct {
		d    metricDef
		a, b recordedMetric
		want string
	}{
		{lower, m(10, 0.01), m(10.5, 0.01), "same"},
		{lower, m(10, 0.01), m(12, 0.01), "worse"},
		{lower, m(10, 0.01), m(8, 0.01), "better"},
		{lower, m(10, 0.2), m(12, 0.01), "unresolved"},
		{higher, m(100, 0), m(80, 0), "worse"},
		{higher, m(100, 0), m(120, 0), "better"},
		{abs, m(0, 0), m(0, 0), "same"},
		{abs, m(0, 0), m(0.01, 0), "worse"},
	} {
		if got, _ := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.d.name, c.a.Median, c.b.Median, got, c.want)
		}
	}

	dir := t.TempDir()
	write := func(name string, p50 float64) string {
		rf := recordFile{Workloads: map[string]*recordedWorkload{"archive-mixed": {EndToEnd: map[string]recordedMetric{}}}}
		for _, d := range e2eMetrics {
			rf.Workloads["archive-mixed"].EndToEnd[d.name] = m(1, 0)
		}
		rf.Workloads["archive-mixed"].EndToEnd["read_p50_ms"] = m(p50, 0)
		data, err := json.Marshal(rf)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base, slow := write("a.json", 10), write("b.json", 13)
	var out bytes.Buffer
	if worse, err := compareFiles(&out, base, base); err != nil || worse {
		t.Errorf("a vs a: worse=%v err=%v", worse, err)
	}
	if worse, err := compareFiles(&out, base, slow); err != nil || !worse {
		t.Errorf("a vs slower b: worse=%v err=%v\n%s", worse, err, out.String())
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the harness's own tables the
// same list: the driver reads the file, the program prints from the tables.
func TestBenchmarkJSON(t *testing.T) {
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	var want struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	want.Command, want.Paths, want.RunSeconds = []string{"go", "run", "./bench"}, []string{"bench"}, runSeconds
	for _, w := range workloads {
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
		want.Workloads = append(want.Workloads, wl{w.name, w.why})
	}
	for _, d := range e2eMetrics {
		if d.abs {
			continue // fail_frac: gated through the result line's failed/attempted
		}
		b := d.bound
		want.EndToEnd = append(want.EndToEnd, metric{d.name, d.unit, d.better, &b})
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("%s: contract bounds are relative and at most 0.25", d.name)
		}
	}
	for _, d := range layerMetrics {
		want.PerLayer = append(want.PerLayer, metric{d.name, d.unit, d.better, nil})
	}
	if len(want.PerLayer) > 128 || len(want.EndToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics exceed the contract's 128 and 16", len(want.PerLayer), len(want.EndToEnd))
	}
	expected, err := json.MarshalIndent(want, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatalf("%v\nBENCHMARK.json should read:\n%s", err, expected)
	}
	var a, b interface{}
	if err := json.Unmarshal(got, &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(expected, &b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("BENCHMARK.json differs from the harness's tables; it should read:\n%s", expected)
	}
}
