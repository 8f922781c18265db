package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// metricDef describes one end-to-end metric: what a user of the system
// sees. bound is the worsening that counts as a regression, as a share of
// the baseline. Every metric but fail_frac is listed in BENCHMARK.json, whose
// bounds must be relative and at most 0.25 and whose values are never 0;
// fail_frac is 0 on a healthy run and bounded absolutely (any failure is a
// regression), so a driver gates on it through the result line's
// failed/attempted instead. README.md defines each metric and records the
// spreads the bounds come from.
type metricDef struct {
	name, unit, better string
	bound              float64
	abs                bool
}

var e2eMetrics = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "user_mb_per_s", unit: "MB/s", better: "higher", bound: 0.25},
	{name: "cpu_s_per_user_gb", unit: "s/GB", better: "lower", bound: 0.25},
	{name: "alloc_bytes_per_user_byte", unit: "B/B", better: "lower", bound: 0.12},
	{name: "write_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "read_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "read_p90_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "slice_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "slice_p90_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "model_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "fail_frac", unit: "fraction", better: "lower", bound: 0, abs: true},
	{name: "stored_bytes_per_user_byte", unit: "B/B", better: "lower", bound: 0.06},
	{name: "ratio_est_accuracy_pct", unit: "%", better: "higher", bound: ratioAccuracyBound},
	{name: "psnr_est_accuracy_pct", unit: "%", better: "higher", bound: psnrAccuracyBound},
}

// The two estimate errors of the audit are reported as accuracies, because a
// listed metric must not be near 0 and is bounded relatively:
//
//	ratio_est_accuracy_pct = 100 - median |estimated - achieved ratio| / achieved, in %
//	psnr_est_accuracy_pct  = 100 x (1 - median |estimated - measured PSNR| / 60 dB)
//
// At the baseline (about 95% and 99.99%) a relative bound b allows the ratio
// error to grow by 0.95 b x 100 points and the PSNR error by 60 b dB.
const (
	// 2.9 points of ratio error. ISSUE 11 asked for 0.5, but a driver takes
	// the spread over runs with different seeds, another seed is another
	// corpus, and the audit then moves by 0.4 to 1.0% of itself; a bound has
	// to be three times the spread it is judged by.
	ratioAccuracyBound = 0.03
	// 0.1 dB of PSNR error, as ISSUE 11 asked (60 dB x 0.0017).
	psnrAccuracyBound = 0.0017
)

// value is one reported number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run of one workload produced.
type result struct {
	Workload  string
	Seed      uint64
	Attempted int
	Failed    int
	Samples   map[string]int
	UserBytes int64
	// TimedSeconds is how long the fixed op list took, oracle included: what
	// --seconds caps.
	TimedSeconds float64
	Metrics      map[string]float64
	Failures     []string
	Counters     map[string]float64
}

// setUp builds the corpus and the system under test. Everything in here is
// what setup_s times.
func setUp(w *workload, cfg config, rec *recorder, dir string) (*corpus, target, error) {
	corp, err := buildCorpus(w.fields, cfg.seed, cfg.scale)
	if err != nil {
		return nil, nil, err
	}
	if w.library {
		t, err := newLibraryTarget(w, cfg, corp, rec)
		return corp, t, err
	}
	t, err := newServerTarget(w, cfg, corp, rec, dir)
	if err != nil {
		return nil, nil, err
	}
	return corp, t, nil
}

func newClients(w *workload, cfg config, corp *corpus) []*clientState {
	clients := make([]*clientState, w.clients)
	for c := range clients {
		clients[c] = &clientState{id: c, sched: newSchedule(w, corp, cfg.sliceLen, cfg.seed, c)}
	}
	return clients
}

// runWorkload is one untraced run: set-up, an untimed warm-up of 5% of the
// schedule, the timed closed loop, then the accuracy audit. End-to-end
// metrics come only from here.
func runWorkload(w *workload, cfg config) (*result, error) {
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.workDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	t0 := time.Now()
	corp, t, err := setUp(w, cfg, nil, dir)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	defer t.close()
	setup := time.Since(t0).Seconds()
	clients := newClients(w, cfg, corp)

	// Warm-up: caches and lazy set-up (connection pools, sync.Pool arenas,
	// page cache) fill before the clock starts.
	ops := cfg.opsFor(w)
	warm := drive(t, clients, warmOps(w, ops))
	before := t.counters()
	sec := drive(t, clients, ops)
	after := t.counters()
	if cfg.limit > 0 && sec.wall > cfg.limit {
		return nil, fmt.Errorf("%s: the timed section of %d ops per client took %.1f s, over the %.0f s cap",
			w.name, ops, sec.wall.Seconds(), cfg.limit.Seconds())
	}
	ratioErr, psnrErr, err := t.audit()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	res := summarize(w, cfg, sec, setup)
	res.TimedSeconds = sec.wall.Seconds()
	res.Failed += countFailed(warm.samples)
	res.Attempted += len(warm.samples)
	res.Failures = append(warm.failures, res.Failures...)
	held, live := t.stored()
	m := res.Metrics
	m["stored_bytes_per_user_byte"] = float64(held) / float64(live)
	m["ratio_est_accuracy_pct"] = 100 - median(ratioErr)
	m["psnr_est_accuracy_pct"] = 100 * (1 - median(psnrErr)/targetPSNR)
	m["fail_frac"] = float64(res.Failed) / float64(res.Attempted)
	res.Counters = map[string]float64{}
	for k, v := range after {
		res.Counters[k] = v - before[k]
	}
	return res, nil
}

// warmOps is the untimed prefix of a schedule: 5% of the timed op list,
// rounded up to whole cycles of the mix so that the timed section is whole
// cycles too and every verb's sample count is the same for every seed.
func warmOps(w *workload, ops int) int {
	cycle := len(interleave(w.mix))
	return (max(ops/20, 1) + cycle - 1) / cycle * cycle
}

func countFailed(samples []sample) int {
	n := 0
	for _, s := range samples {
		if s.failed {
			n++
		}
	}
	return n
}

// summarize turns a timed section into the timing metrics.
func summarize(w *workload, cfg config, sec *section, setup float64) *result {
	res := &result{
		Workload: w.name, Seed: cfg.seed, Attempted: len(sec.samples), Failed: countFailed(sec.samples),
		Samples: map[string]int{}, Metrics: map[string]float64{}, Failures: sec.failures,
	}
	for _, s := range sec.samples {
		res.Samples[s.verb.String()]++
		res.UserBytes += s.bytes
	}
	ub := float64(res.UserBytes)
	m := res.Metrics
	m["setup_s"] = setup
	m["user_mb_per_s"] = ub / 1e6 / sec.busy.Seconds()
	m["cpu_s_per_user_gb"] = sec.cpu.Seconds() / (ub / 1e9)
	m["alloc_bytes_per_user_byte"] = float64(sec.alloc) / ub
	m["write_p50_ms"] = stratifiedP50(sec.samples, vWrite)
	m["read_p50_ms"] = stratifiedP50(sec.samples, vRead)
	m["read_p90_ms"] = stratifiedTail(sec.samples, vRead, 0.90)
	m["slice_p50_ms"] = stratifiedP50(sec.samples, vSlice)
	m["slice_p90_ms"] = stratifiedTail(sec.samples, vSlice, 0.90)
	m["model_p50_ms"] = stratifiedP50(sec.samples, vModel)
	return res
}

// printResult prints every end-to-end metric by name and unit, with the
// sample counts beside them.
func printResult(res *result) {
	fmt.Printf("== %s (seed %d): %d ops attempted, %d failed", res.Workload, res.Seed, res.Attempted, res.Failed)
	for v := verb(0); v < nVerbs; v++ {
		if n := res.Samples[v.String()]; n > 0 {
			fmt.Printf(", %s %d", v, n)
		}
	}
	fmt.Printf(", %.1f MB user bytes, timed section %.1f s\n", float64(res.UserBytes)/1e6, res.TimedSeconds)
	for _, d := range e2eMetrics {
		fmt.Printf("   %-28s %14.6g %s\n", d.name, res.Metrics[d.name], d.unit)
	}
	for _, f := range res.Failures {
		fmt.Printf("   FAILED %s\n", f)
	}
}

// contractMetrics selects what the last output line carries: the metrics
// BENCHMARK.json lists, by name and unit.
func contractMetrics(res *result) map[string]value {
	out := map[string]value{}
	for _, d := range e2eMetrics {
		if !d.abs {
			out[d.name] = value{res.Metrics[d.name], d.unit}
		}
	}
	return out
}

// iqrSpread is the distance between the first and third quartile as a share of
// the median: the run-to-run spread the acceptance rule compares to a bound.
func iqrSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	// statistics.quantiles(n=4), exclusive method.
	q := func(p float64) float64 {
		pos := p*float64(len(s)+1) - 1
		lo := int(math.Floor(pos))
		if lo < 0 {
			return s[0]
		}
		if lo >= len(s)-1 {
			return s[len(s)-1]
		}
		return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
	}
	med := q(0.5)
	if med == 0 {
		return 0
	}
	return (q(0.75) - q(0.25)) / math.Abs(med)
}

// outDir is where a run leaves its work directories (removed) and span
// files (kept), inside the checkout.
const outDir = ".bench_out"
