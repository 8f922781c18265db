package main

import (
	"bytes"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"syscall"
	"time"

	"rqm"
	"rqm/internal/stats"
)

// Fixed load shape: the sandbox has two cores, shared by the load generator
// and the in-process servers. Do not scale these with nproc; the result
// records nproc instead.
const streamWorkers = 2

// config is what one run is parameterized by, besides the workload.
type config struct {
	seed     uint64
	scale    rqm.Scale
	chunk    int // stream chunk size in values
	sliceLen int // values per slice op
	workDir  string
	// ops, when set, replaces the workload's own op count per client: the
	// smoke tests run a few cycles at ScaleTiny.
	ops int
	// limit, when set, fails a run whose timed section took longer: the op
	// list is fixed, so the driver's --seconds can only be a cap.
	limit time.Duration
	// wrapShard, when set, interposes on every shard's handler (the oracle
	// self-test injects faults through it).
	wrapShard func(next http.Handler) http.Handler
}

// smallConfig is the measured configuration.
func smallConfig() config {
	return config{seed: 1, scale: rqm.ScaleSmall, chunk: 65536, sliceLen: 4096}
}

// opsFor is the length of the timed op list per client.
func (cfg config) opsFor(w *workload) int {
	if cfg.ops > 0 {
		return cfg.ops
	}
	return w.ops
}

// target is one system under test, set up and ready for ops.
type target interface {
	// do runs one op: untimed preparation, the timed call or calls, then the
	// untimed oracle. It returns the timed latency and the uncompressed
	// field bytes the op wrote or read. A non-nil error marks the op failed
	// (errored, refused, timed out or incorrect); it never aborts the run.
	do(cs *clientState, o op) (time.Duration, int64, error)
	// audit compares the model's estimates with what was delivered, on 8
	// datasets: relative ratio error in percent and PSNR error in dB.
	audit() (ratioErrPct, psnrErrDB []float64, err error)
	// stored reports bytes held at the end and the live user bytes they
	// represent.
	stored() (held, live int64)
	// counters snapshots the layers' own counters (store chunk reads,
	// service and router snapshots) for the per-layer metrics.
	counters() map[string]float64
	close()
}

// clientState is one closed-loop client: its schedule and the buffers it
// reuses across ops, so the load generator's own allocations stay small
// next to the system's.
type clientState struct {
	id      int
	sched   *schedule
	req     []byte
	resp    bytes.Buffer
	scratch rqm.Field
}

// sample is one completed op.
type sample struct {
	verb    verb
	stratum int
	lat     time.Duration
	bytes   int64
	failed  bool
}

// section is one measured stretch of a run.
type section struct {
	samples  []sample
	wall     time.Duration // start of the first op to the end of the last, oracle included
	busy     time.Duration // per-client op time, averaged over clients
	cpu      time.Duration // process user+sys CPU over the section
	alloc    uint64        // runtime TotalAlloc delta
	failures []string      // first few failure messages
}

// drive runs the next ops ops of every client's schedule as a closed loop:
// a client issues its next op only when the previous one has completed and
// been checked. A tier op rides behind the write that triggered it and is
// not counted, so ops is always whole cycles of the mix.
func drive(t target, clients []*clientState, ops int) *section {
	sec := &section{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	var ru0, ru1 syscall.Rusage
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru0) // cannot fail for RUSAGE_SELF
	t0 := time.Now()
	for _, cs := range clients {
		wg.Add(1)
		go func(cs *clientState) {
			defer wg.Done()
			var local []sample
			var busy time.Duration
			var fails []string
			for done := 0; done < ops; {
				o := cs.sched.next()
				if o.Verb != vTier {
					done++
				}
				s, err := runOp(t, cs, o)
				busy += s.lat
				if err != nil && len(fails) < 5 {
					fails = append(fails, err.Error())
				}
				local = append(local, s)
			}
			mu.Lock()
			sec.samples = append(sec.samples, local...)
			sec.busy += busy / time.Duration(len(clients))
			sec.failures = append(sec.failures, fails...)
			mu.Unlock()
		}(cs)
	}
	wg.Wait()
	sec.wall = time.Since(t0)
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru1)
	runtime.ReadMemStats(&ms1)
	sec.cpu = tv(ru1.Utime) + tv(ru1.Stime) - tv(ru0.Utime) - tv(ru0.Stime)
	sec.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	return sec
}

func tv(t syscall.Timeval) time.Duration {
	return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
}

// runOp runs one op and files it as a sample; the error, if any, names the
// op for the failure report.
func runOp(t target, cs *clientState, o op) (sample, error) {
	lat, nb, err := t.do(cs, o)
	s := sample{verb: o.Verb, stratum: o.Stratum, lat: lat, bytes: nb, failed: err != nil}
	if err != nil {
		s.bytes = 0
		err = fmt.Errorf("client %d op %d %s %s: %w", cs.id, o.Seq, o.Verb, slotName(cs.sched.w, cs.id, o.Field, o.Variant), err)
	}
	return s, err
}

// timeOp measures the timed part of an op, under the op's root span when
// the run is traced: preparation before it and the oracle after it stay
// outside both.
func timeOp(rec *recorder, o op, fn func() error) (time.Duration, error) {
	id := rec.beginOp(o)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	rec.end(id)
	return d, err
}

// Latency statistics.
//
// A workload mixes fields of different sizes (1.6 to 12.6 MB) and codecs,
// so the pooled latency distribution of a verb is multi-modal and its plain
// median sits between two modes, jumping from one to the other with the
// sample count. Latency is therefore summarized per stratum (ops on the
// same field and codec, whose latencies are comparable):
//
//	p50 = mean over strata of the stratum's median latency
//	p90 = p50 x the 0.90 quantile of (latency / its stratum's median), pooled
//
// so p50 is the typical latency of an op drawn evenly across the corpus and
// p90 is how much slower than typical the slowest tenth of ops ran.

func byStratum(samples []sample, v verb) map[int][]float64 {
	out := map[int][]float64{}
	for _, s := range samples {
		if s.verb == v && !s.failed {
			out[s.stratum] = append(out[s.stratum], float64(s.lat)/1e6)
		}
	}
	return out
}

// stratifiedP50 is the mean of per-stratum medians, in ms (0 = no samples).
func stratifiedP50(samples []sample, v verb) float64 {
	groups := byStratum(samples, v)
	if len(groups) == 0 {
		return 0
	}
	sum := 0.0
	for _, g := range groups {
		sum += median(g)
	}
	return sum / float64(len(groups))
}

// stratifiedTail is the q-quantile in ms as defined above.
func stratifiedTail(samples []sample, v verb, q float64) float64 {
	groups := byStratum(samples, v)
	var rel []float64
	for _, g := range groups {
		m := median(g)
		if m <= 0 {
			continue
		}
		for _, x := range g {
			rel = append(rel, x/m)
		}
	}
	if len(rel) == 0 {
		return 0
	}
	return stratifiedP50(samples, v) * stats.Quantile(rel, q)
}

func median(xs []float64) float64 { return stats.Quantile(xs, 0.5) }

func medianDur(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}
