// Command rqmodel runs the ratio-quality model on a field file: it prints
// the modeled rate-distortion table for an error-bound sweep, optionally
// validates against real compression runs, and solves the inverse problems.
// The model is codec-agnostic: -codec selects any registered backend.
//
// Usage:
//
//	rqmodel -in field.rqmf -predictor lorenzo
//	rqmodel -in field.rqmf -codec transform
//	rqmodel -in field.rqmf -target-psnr 60
//	rqmodel -in field.rqmf -target-bitrate 2.5
//	rqmodel -in field.rqmf -measure          # compare against real runs
//	rqmodel -in field.rqmf -target-psnr 60 -chunk-plan 262144  # streaming dry run
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"text/tabwriter"

	"rqm"
	"rqm/internal/grid"
	"rqm/internal/partition"
)

func main() {
	var (
		in            = flag.String("in", "", "input .rqmf field file")
		codecName     = flag.String("codec", rqm.CodecPredictionName, strings.Join(rqm.CodecNames(), "|"))
		predName      = flag.String("predictor", "lorenzo", "prediction scheme (prediction codec)")
		sampleRate    = flag.Float64("sample", 0.01, "model sampling rate")
		seed          = flag.Uint64("seed", 42, "sampling seed")
		measure       = flag.Bool("measure", false, "also run real compression for comparison")
		targetPSNR    = flag.Float64("target-psnr", 0, "solve error bound for this PSNR (dB)")
		targetBitRate = flag.Float64("target-bitrate", 0, "solve error bound for this bit-rate")
		targetRatio   = flag.Float64("target-ratio", 0, "solve error bound for this compression ratio")
		chunkPlan     = flag.Int("chunk-plan", 0, "with a target: print the per-chunk bound plan the streaming pipeline would use, at this chunk size in values")
	)
	flag.Parse()
	if *in == "" {
		fmt.Fprintln(os.Stderr, "rqmodel: -in is required")
		os.Exit(2)
	}
	fh, err := os.Open(*in)
	must(err)
	f, err := grid.ReadFrom(fh)
	fh.Close()
	must(err)
	if f.Name == "" {
		f.Name = *in
	}
	kind, err := rqm.ParsePredictorKind(*predName)
	must(err)

	c, err := rqm.CodecByName(*codecName)
	must(err)
	copts := rqm.CodecOptions{Predictor: kind, Mode: rqm.ABS, Lossless: rqm.LosslessFlate}
	// The codec reads the pipeline (predictor, lossless stage) off copts.
	mopts := rqm.ModelOptions{SampleRate: *sampleRate, Seed: *seed}
	if *chunkPlan > 0 {
		must(planChunks(os.Stdout, f, partition.Env{Codec: c, Copts: copts, Mopts: mopts, Prec: f.Prec,
			Policy: &partition.AdaptiveBound{TargetRatio: *targetRatio, TargetPSNR: *targetPSNR}}, *chunkPlan))
		return
	}
	prof, err := c.Profile(f, copts, mopts)
	must(err)
	fmt.Printf("profile: %s/%s on %q (%d values, range %.6g, %d sampled errors, built in %v)\n",
		c.Name(), kind, f.Name, prof.N, prof.Range, len(prof.Errors), prof.BuildTime)

	switch {
	case *targetPSNR > 0:
		eb, err := prof.ErrorBoundForPSNR(*targetPSNR)
		must(err)
		est := prof.EstimateAt(eb)
		fmt.Printf("error bound for PSNR >= %.2f dB: %.6g (modeled PSNR %.2f, ratio %.2fx)\n",
			*targetPSNR, eb, est.PSNR, est.Ratio)
	case *targetBitRate > 0:
		eb, err := prof.ErrorBoundForBitRate(*targetBitRate)
		must(err)
		est := prof.EstimateAt(eb)
		fmt.Printf("error bound for %.3f bits/value: %.6g (modeled huffman %.3f, total %.3f)\n",
			*targetBitRate, eb, est.HuffmanBitRate, est.TotalBitRate)
	case *targetRatio > 1:
		eb, err := prof.ErrorBoundForRatio(*targetRatio)
		must(err)
		est := prof.EstimateAt(eb)
		fmt.Printf("error bound for ratio %.1fx: %.6g (modeled ratio %.2fx, PSNR %.2f dB)\n",
			*targetRatio, eb, est.Ratio, est.PSNR)
	default:
		sweep(prof, f, c, copts, *measure)
	}
}

func sweep(prof *rqm.Profile, f *rqm.Field, c rqm.Codec, copts rqm.CodecOptions, measure bool) {
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	if measure {
		fmt.Fprintln(tw, "relEB\tabsEB\test bits\test ratio\test PSNR\test SSIM\tmeas bits\tmeas ratio\tmeas PSNR")
	} else {
		fmt.Fprintln(tw, "relEB\tabsEB\test bits\test ratio\test PSNR\test SSIM")
	}
	for _, rel := range []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1} {
		eb := rel * prof.Range
		est := prof.EstimateAt(eb)
		if !measure {
			fmt.Fprintf(tw, "%.0e\t%.4g\t%.3f\t%.2f\t%.2f\t%.4f\n",
				rel, eb, est.TotalBitRate, est.Ratio, est.PSNR, est.SSIM)
			continue
		}
		copts.ErrorBound = eb
		res, err := rqm.CompressWith(c, f, copts)
		must(err)
		dec, err := rqm.Decompress(res.Bytes)
		must(err)
		psnr, err := rqm.PSNR(f, dec)
		must(err)
		fmt.Fprintf(tw, "%.0e\t%.4g\t%.3f\t%.2f\t%.2f\t%.4f\t%.3f\t%.2f\t%.2f\n",
			rel, eb, est.TotalBitRate, est.Ratio, est.PSNR, est.SSIM,
			res.Stats.BitRate, res.Stats.Ratio, psnr)
	}
	must(tw.Flush())
}

// planChunks is a dry run of the streaming pipeline's adaptive layer: it
// splits the field into fixed chunks and prints, for each, the bound the
// stream writer would record — solved by the writer's own per-region solve,
// env.SolveRegion — with the model's estimates at that bound, all without
// compressing a single byte.
func planChunks(out io.Writer, f *rqm.Field, env partition.Env, chunkValues int) error {
	if err := env.Policy.Validate(); err != nil {
		return fmt.Errorf("-chunk-plan needs one of -target-ratio and -target-psnr: %w", err)
	}
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "chunk\tvalues\tabsEB\test bits\test ratio\test PSNR")
	for i, off := 0, 0; off < f.Len(); i, off = i+1, off+chunkValues {
		vals := f.Data[off:min(off+chunkValues, f.Len())]
		eb, prof := env.SolveRegion(vals, 0)
		if prof == nil {
			fmt.Fprintf(tw, "%d\t%d\t%.6g\t(fallback: the model cannot solve this chunk)\n", i, len(vals), eb)
			continue
		}
		est := prof.EstimateAt(eb)
		fmt.Fprintf(tw, "%d\t%d\t%.6g\t%.3f\t%.2f\t%.2f\n",
			i, len(vals), eb, est.TotalBitRate, est.Ratio, est.PSNR)
	}
	return tw.Flush()
}

func must(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "rqmodel:", err)
		os.Exit(1)
	}
}
