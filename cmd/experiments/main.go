// Command experiments regenerates the paper's tables and figures (DESIGN.md
// §15 lists the experiment ids).
//
// Usage:
//
//	experiments -list
//	experiments -run fig10
//	experiments -run all -scale small
package main

import (
	"flag"
	"fmt"
	"os"

	"rqm/internal/datagen"
	"rqm/internal/experiments"
)

func main() {
	var (
		run    = flag.String("run", "all", "experiment id or 'all'")
		scale  = flag.String("scale", "small", "tiny|small|medium")
		seed   = flag.Uint64("seed", 42, "generation/sampling seed")
		sample = flag.Float64("sample", 0.01, "model sampling rate")
		list   = flag.Bool("list", false, "list experiment ids and exit")
	)
	flag.Parse()

	if *list {
		for _, n := range experiments.Names() {
			fmt.Println(n)
		}
		return
	}
	cfg := experiments.Default()
	cfg.Seed = *seed
	cfg.SampleRate = *sample
	switch *scale {
	case "tiny":
		cfg.Scale = datagen.Tiny
		if *sample <= 0.01 {
			cfg.SampleRate = 0.2 // tiny fields need more samples
		}
	case "small":
		cfg.Scale = datagen.Small
	case "medium":
		cfg.Scale = datagen.Medium
	default:
		fmt.Fprintf(os.Stderr, "experiments: unknown scale %q\n", *scale)
		os.Exit(2)
	}

	if *run == "all" {
		if err := experiments.RunAll(cfg, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		return
	}
	reg := experiments.Registry()
	fn, ok := reg[*run]
	if !ok {
		fmt.Fprintf(os.Stderr, "experiments: unknown id %q (try -list)\n", *run)
		os.Exit(2)
	}
	if err := fn(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}
