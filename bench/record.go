package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

// recordFile is a kept result: every metric of every workload, with the
// environment it was measured in. bench/trajectory holds one per PR.
type recordFile struct {
	Environment map[string]string            `json:"environment"`
	Seed        uint64                       `json:"seed"`
	Runs        int                          `json:"runs"`
	Workloads   map[string]*recordedWorkload `json:"workloads"`
}

type recordedWorkload struct {
	Why       string                    `json:"why"`
	Ops       int                       `json:"ops_per_client"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Samples   map[string]int            `json:"samples"`
	UserBytes int64                     `json:"user_bytes"`
	EndToEnd  map[string]recordedMetric `json:"end_to_end"`
	PerLayer  map[string]value          `json:"per_layer"`
	SpanNames []string                  `json:"spans_inside_ops"`
	// Attribution and Direct: where each verb's latency went (see
	// traceResult).
	Attribution []attribution                 `json:"where_the_time_goes"`
	Direct      map[string]map[string]float64 `json:"shard_serve_called_directly_ms"`
}

// recordedMetric keeps every run's value: the median is what comparisons
// use, the spread (interquartile range over median) is what makes a
// difference resolvable.
type recordedMetric struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Spread float64   `json:"spread"`
	Values []float64 `json:"values"`
}

// environment describes the machine and build a result belongs to.
func environment() map[string]string {
	env := map[string]string{
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS + "/" + runtime.GOARCH,
		"cpu":        "unknown",
		"commit":     "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				env["cpu"] = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env["commit"] = strings.TrimSpace(string(out))
	}
	return env
}

// record runs every workload runs times untraced and once traced, prints
// the reports, and writes everything to path.
func record(todo []*workload, cfg config, runs int, path string) error {
	rf := &recordFile{
		Environment: environment(), Seed: cfg.seed, Runs: runs, Workloads: map[string]*recordedWorkload{},
	}
	for _, w := range todo {
		rw := &recordedWorkload{Why: w.why, Ops: cfg.opsFor(w), EndToEnd: map[string]recordedMetric{}, PerLayer: map[string]value{}}
		vals := map[string][]float64{}
		for i := 0; i < runs; i++ {
			res, err := runWorkload(w, cfg)
			if err != nil {
				return err
			}
			printResult(res)
			for k, v := range res.Metrics {
				vals[k] = append(vals[k], v)
			}
			rw.Attempted += res.Attempted
			rw.Failed += res.Failed
			rw.Samples, rw.UserBytes = res.Samples, res.UserBytes
		}
		for _, d := range e2eMetrics {
			rw.EndToEnd[d.name] = recordedMetric{Unit: d.unit, Median: median(vals[d.name]), Spread: iqrSpread(vals[d.name]), Values: vals[d.name]}
		}
		tr, err := traceWorkload(w, cfg)
		if err != nil {
			return err
		}
		printLayers(tr)
		for _, d := range layerMetrics {
			rw.PerLayer[d.name] = value{tr.Metrics[d.name], d.unit}
		}
		rw.SpanNames, rw.Attribution, rw.Direct = tr.SpanNames, tr.Attribution, tr.Direct
		rw.Failed += tr.Failed
		rw.Attempted += tr.Attempted
		rf.Workloads[w.name] = rw
	}
	data, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func loadRecord(path string) (*recordFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf recordFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// compareFiles prints, per workload and end-to-end metric, both medians,
// the change, the bound and a verdict, and reports whether any is worse.
//
//	better / worse  the change exceeds the bound
//	same            it does not
//	unresolved      either side's own run-to-run spread exceeds the bound,
//	                so a change of that size cannot be told from noise
func compareFiles(out io.Writer, pathA, pathB string) (worse bool, err error) {
	a, err := loadRecord(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadRecord(pathB)
	if err != nil {
		return false, err
	}
	var names []string
	for n := range a.Workloads {
		if b.Workloads[n] != nil {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(out, "%-16s %-28s %14s %14s %9s %7s  %s\n", "workload", "metric", "a", "b", "change", "bound", "verdict")
	for _, n := range names {
		for _, d := range e2eMetrics {
			ma, mb := a.Workloads[n].EndToEnd[d.name], b.Workloads[n].EndToEnd[d.name]
			verdict, change := judge(d, ma, mb)
			worse = worse || verdict == "worse"
			fmt.Fprintf(out, "%-16s %-28s %14.6g %14.6g %+8.2f%s %6.2f%s  %s\n", n, d.name, ma.Median, mb.Median,
				change, unitOf(d), boundOf(d), unitOf(d), verdict)
		}
	}
	return worse, nil
}

func unitOf(d metricDef) string {
	if d.abs {
		return " "
	}
	return "%"
}

func boundOf(d metricDef) float64 {
	if d.abs {
		return d.bound
	}
	return 100 * d.bound
}

// judge returns the verdict and the signed change from a to b: in percent
// of a, or in the metric's unit when its bound is absolute. Positive is
// worse.
func judge(d metricDef, a, b recordedMetric) (string, float64) {
	diff := b.Median - a.Median
	if d.better == "higher" {
		diff = -diff
	}
	change, bound := diff, d.bound
	spreadA, spreadB := a.Spread*math.Abs(a.Median), b.Spread*math.Abs(b.Median)
	if !d.abs {
		if a.Median == 0 {
			return "unresolved", 0
		}
		change = 100 * diff / math.Abs(a.Median)
		bound = 100 * d.bound
		spreadA, spreadB = 100*a.Spread, 100*b.Spread
	}
	switch {
	case spreadA > bound || spreadB > bound:
		return "unresolved", change
	case change > bound:
		return "worse", change
	case change < -bound:
		return "better", change
	}
	return "same", change
}
