package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// traceResult is what one traced run of one workload produced.
type traceResult struct {
	Workload  string
	Attempted int
	Failed    int
	Failures  []string
	Metrics   map[string]float64
	SpanFile  string
	SpanNames []string // span names seen inside replayed ops
	// Attribution says where each verb's latency went in the replay; Direct
	// breaks the shard's share down further, by the same operation's direct
	// calls in the layer pass (verb -> step -> ms).
	Attribution []attribution
	Direct      map[string]map[string]float64
}

// replayOps is how many ops the traced run replays: whole cycles of the
// workload's verb pattern, so the replay has the schedule's own mix.
func replayOps(w *workload) int {
	cycle := len(interleave(w.mix))
	return (100 + cycle - 1) / cycle * cycle
}

// traceWorkload is the traced run. It replays the start of client 0's
// schedule serially, so a span's parent is simply the open span of the next
// lower depth. Every op runs twice, once recorded and once with recording
// paused (ops are idempotent: the same name gets the same content), in
// alternating order so warmth and drift cancel: the paused half is the
// baseline the tracing overhead is measured against. It then runs the
// direct-call layer pass on the same corpus and writes every span out.
func traceWorkload(w *workload, cfg config) (*traceResult, error) {
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.workDir, "trace-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	rec := newRecorder()
	rec.paused = true
	corp, t, err := setUp(w, cfg, rec, dir)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	defer t.close()
	n := replayOps(w)
	if cfg.ops > 0 {
		n = cfg.ops
	}
	cs := newClients(w, cfg, corp)[0]
	drive(t, []*clientState{cs}, len(interleave(w.mix))) // one cycle of warm-up
	before := t.counters()
	plain, traced := &section{}, &section{}
	for i := 0; i < n; i++ {
		o := cs.sched.next()
		for pass := 0; pass < 2; pass++ {
			sec := plain
			if rec.paused = pass == i%2; !rec.paused {
				sec = traced
			}
			s, err := runOp(t, cs, o)
			sec.samples = append(sec.samples, s)
			sec.busy += s.lat
			if err != nil {
				sec.failures = append(sec.failures, err.Error())
			}
		}
	}
	rec.paused = true
	after := t.counters()
	replayed := len(rec.spans)

	seen := map[string]bool{}
	var spanNames []string
	for _, sp := range rec.spans {
		if !seen[sp.Name] {
			seen[sp.Name] = true
			spanNames = append(spanNames, sp.Name)
		}
	}

	rec.paused = false
	m, direct, err := runLayers(w, observe(before, after, seen), cfg, corp, rec, dir)
	if err != nil {
		return nil, fmt.Errorf("%s: layer pass: %w", w.name, err)
	}
	tr := &traceResult{
		Workload:  w.name,
		Attempted: len(plain.samples) + len(traced.samples),
		Failed:    countFailed(plain.samples) + countFailed(traced.samples),
		Failures:  append(plain.failures, traced.failures...),
		Metrics:   m,
		SpanFile:  filepath.Join(cfg.workDir, "spans-"+w.name+".json"),
		SpanNames: spanNames,
		Direct:    direct,
	}
	ops := splitOps(rec.spans[:replayed], rec.selfTimes())
	deriveFromSpans(ops, m)
	tr.Attribution = attribute(ops)

	m["loadgen.ops_per_s"] = float64(len(plain.samples)) / plain.busy.Seconds()
	m["loadgen.write_p95_ms"] = stratifiedTail(plain.samples, vWrite, 0.95)
	m["loadgen.model_p95_ms"] = stratifiedTail(plain.samples, vModel, 0.95)
	var on, off float64
	for v := vWrite; v <= vModel; v++ {
		on += stratifiedP50(traced.samples, v)
		off += stratifiedP50(plain.samples, v)
	}
	if off > 0 {
		m["trace.overhead_frac"] = on/off - 1
	}
	delta := func(k string) float64 { return after[k] - before[k] }
	if asked := delta("service.model_cached") + delta("service.profile_builds"); asked > 0 {
		m["service.profile_hit_frac"] = delta("service.model_cached") / asked
	}
	if reqs := delta("service.requests"); reqs > 0 {
		m["service.rejected_frac"] = delta("service.rejected") / reqs
	}
	m["router.failovers"] = after["router.failovers"]
	m["router.read_repairs"] = after["router.read_repairs"]
	for verb, steps := range direct {
		total := 0.0
		for _, ms := range steps {
			total += ms
		}
		m["service.overhead_ms."+verb] = m["service.serve_ms."+verb] - total
	}
	return tr, rec.write(tr.SpanFile)
}

// opParts is one replayed op taken apart: its duration and the self time
// of each span name inside it. Shard time under a router is the union of
// the replicas' spans (the router span minus its self time), so the parts
// add up to the op along its blocking path.
type opParts struct {
	verb    verb
	stratum int
	total   time.Duration
	parts   map[string]time.Duration
	// fanout is the router span minus its longest shard span.
	fanout time.Duration
}

func splitOps(spans []span, self []time.Duration) map[int]*opParts {
	verbOf := map[string]verb{}
	for v := verb(0); v < nVerbs; v++ {
		verbOf[v.String()] = v
	}
	ops := map[int]*opParts{}
	for i, sp := range spans {
		if sp.Op < 0 {
			continue
		}
		d := time.Duration(sp.End - sp.Start)
		if sp.Name == "loadgen.op" {
			ops[sp.Op] = &opParts{verb: verbOf[sp.Verb], stratum: sp.Stratum, total: d, parts: map[string]time.Duration{}}
		}
		o := ops[sp.Op]
		if o == nil {
			continue
		}
		switch {
		case sp.Name == "shard.serve" && sp.Parent >= 0 && spans[sp.Parent].Name == "router.serve":
			continue // counted once, as the union, from the router span
		case sp.Name == "router.serve":
			o.parts["shard.serve"] += d - self[i]
			longest := time.Duration(0)
			for _, ch := range spans {
				if ch.Parent == i {
					longest = max(longest, time.Duration(ch.End-ch.Start))
				}
			}
			o.fanout += d - longest
		}
		o.parts[sp.Name] += self[i]
	}
	return ops
}

// typical is the stratified p50, in ms, of one quantity over the ops of a
// verb.
func typical(ops map[int]*opParts, v verb, of func(*opParts) time.Duration) float64 {
	var s []sample
	for _, o := range ops {
		if o.verb == v {
			s = append(s, sample{verb: v, stratum: o.stratum, lat: of(o)})
		}
	}
	return stratifiedP50(s, v)
}

// deriveFromSpans turns the replay's spans into the per-verb metrics of the
// layers an op crosses: service (shard time on the op's path), router (its
// span minus the union of its shards' spans) and client (the rest).
func deriveFromSpans(ops map[int]*opParts, m map[string]float64) {
	part := func(name string) func(*opParts) time.Duration {
		return func(o *opParts) time.Duration { return o.parts[name] }
	}
	for v := vWrite; v <= vModel; v++ {
		m["service.serve_ms."+v.String()] = typical(ops, v, part("shard.serve"))
		m["router.self_ms."+v.String()] = typical(ops, v, part("router.serve"))
		if m["service.serve_ms."+v.String()] > 0 {
			m["client.self_ms."+v.String()] = typical(ops, v, func(o *opParts) time.Duration {
				return o.total - o.parts["shard.serve"] - o.parts["router.serve"]
			})
		}
	}
	m["router.put_fanout_ms"] = typical(ops, vWrite, func(o *opParts) time.Duration { return o.fanout })
}

// attribution is where one verb's latency went in the serial replay: the
// typical op latency and the typical self time of each span name inside it.
type attribution struct {
	Verb  string             `json:"verb"`
	OpMs  float64            `json:"op_ms"`
	Parts map[string]float64 `json:"self_ms"`
	// GapFrac is the share of OpMs the parts do not account for (medians of
	// parts do not add up exactly to the median of the whole).
	GapFrac float64 `json:"gap_frac"`
}

func attribute(ops map[int]*opParts) []attribution {
	names := map[string]bool{}
	for _, o := range ops {
		for n := range o.parts {
			names[n] = true
		}
	}
	var out []attribution
	for v := vWrite; v <= vModel; v++ {
		a := attribution{Verb: v.String(), Parts: map[string]float64{}}
		if a.OpMs = typical(ops, v, func(o *opParts) time.Duration { return o.total }); a.OpMs == 0 {
			continue
		}
		sum := 0.0
		for n := range names {
			if p := typical(ops, v, func(o *opParts) time.Duration { return o.parts[n] }); p > 0 {
				a.Parts[n] = p
				sum += p
			}
		}
		a.GapFrac = 1 - sum/a.OpMs
		out = append(out, a)
	}
	return out
}

// sumLine renders name -> ms pairs as " a 1.2 + b 3.4", largest first.
func sumLine(parts map[string]float64) string {
	names := make([]string, 0, len(parts))
	for n := range parts {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return parts[names[i]] > parts[names[j]] })
	var b strings.Builder
	for i, n := range names {
		if i > 0 {
			b.WriteString(" +")
		}
		fmt.Fprintf(&b, " %s %.3f", n, parts[n])
	}
	return b.String()
}

// printLayers prints every per-layer metric by name and unit.
func printLayers(tr *traceResult) {
	fmt.Printf("== %s traced: %d ops replayed, %d failed; spans in %s\n", tr.Workload, tr.Attempted, tr.Failed, tr.SpanFile)
	fmt.Printf("   spans inside ops: %v\n", tr.SpanNames)
	for _, d := range layerMetrics {
		fmt.Printf("   %-44s %14.6g %s\n", d.name, tr.Metrics[d.name], d.unit)
	}
	fmt.Println("   where the time goes (serial replay: typical ms per op = typical self time of each span inside it):")
	for _, a := range tr.Attribution {
		fmt.Printf("     %-6s %9.3f =%s  (unattributed %.1f%%)\n", a.Verb, a.OpMs, sumLine(a.Parts), 100*a.GapFrac)
		if steps := tr.Direct[a.Verb]; len(steps) > 0 {
			fmt.Printf("            shard.serve ~ the same op called directly:%s + service.overhead %.3f\n",
				sumLine(steps), tr.Metrics["service.overhead_ms."+a.Verb])
		}
	}
	for _, f := range tr.Failures {
		fmt.Printf("   FAILED %s\n", f)
	}
}
