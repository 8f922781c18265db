// Command bench is the closed-loop system benchmark: it drives the rqm
// library and the archive service the way their two kinds of user do, on
// four named workloads, and reports end-to-end metrics (untraced run) or
// per-layer metrics (traced run). See README.md in this directory.
//
//	go run ./bench --workload archive-mixed --seed 1 --seconds 30 --trace 0
//	go run ./bench --workload archive-mixed --seed 1 --seconds 30 --trace 1
//	go run ./bench -runs 5 -out a.json          every workload, both kinds of run
//	go run ./bench -compare a.json b.json       verdict per workload x metric
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// runSeconds is BENCHMARK.json's run_seconds. A run measures a fixed op
// list, so that counts repeat exactly for a seed; the lists are sized to
// take about two thirds of runSeconds on the 2-core sandbox, and --seconds
// is the cap a slower run fails at.
const runSeconds = 30

// lastLine is the one JSON object a run prints last on standard output.
type lastLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "run one workload (default: all four)")
		seed    = flag.Uint64("seed", 1, "the only input to corpus and schedule generation")
		seconds = flag.Float64("seconds", runSeconds, "cap on the timed section: a run whose fixed op list takes longer fails")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics from an untraced run; 1: per-layer metrics from a traced run")
		runs    = flag.Int("runs", 1, "with -out: untraced runs per workload (medians and spreads are recorded)")
		out     = flag.String("out", "", "write every metric of every workload, with the environment, to this file")
		compare = flag.Bool("compare", false, "compare two -out files: bench -compare a.json b.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fail(fmt.Errorf("-compare needs two result files"))
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fail(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	cfg := smallConfig()
	cfg.seed, cfg.workDir = *seed, outDir
	cfg.limit = time.Duration(*seconds * float64(time.Second))
	todo := workloads
	if *name != "" {
		w, err := workloadByName(*name)
		if err != nil {
			fail(err)
		}
		todo = []*workload{w}
	}
	if *out != "" {
		if err := record(todo, cfg, *runs, *out); err != nil {
			fail(err)
		}
		return
	}
	for _, w := range todo {
		line, err := runOnce(w, cfg, *trace == 1)
		if err != nil {
			fail(err)
		}
		enc, err := json.Marshal(line)
		if err != nil {
			fail(err)
		}
		fmt.Println(string(enc))
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// runOnce is one driver-style run of one workload: it prints the readable
// report and returns the result line.
func runOnce(w *workload, cfg config, traced bool) (*lastLine, error) {
	if traced {
		tr, err := traceWorkload(w, cfg)
		if err != nil {
			return nil, err
		}
		printLayers(tr)
		line := &lastLine{Correct: tr.Failed == 0, Attempted: tr.Attempted, Failed: tr.Failed, Metrics: map[string]value{}}
		for _, d := range layerMetrics {
			line.Metrics[d.name] = value{tr.Metrics[d.name], d.unit}
		}
		return line, nil
	}
	res, err := runWorkload(w, cfg)
	if err != nil {
		return nil, err
	}
	printResult(res)
	return &lastLine{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: contractMetrics(res)}, nil
}
