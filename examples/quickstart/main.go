// Quickstart: configure an Engine, compress a scientific field with an
// error bound, verify the bound, and show that the ratio-quality model
// predicted the outcome without running the compressor.
package main

import (
	"fmt"
	"log"

	"rqm"
)

func main() {
	// Synthesize a Nyx-like 3D temperature field (a stand-in for the
	// cosmology data the paper evaluates).
	field, err := rqm.GenerateField("nyx/temperature", 42, rqm.ScaleSmall)
	if err != nil {
		log.Fatal(err)
	}
	lo, hi := field.ValueRange()
	fmt.Printf("field %q: %v values, range [%.3g, %.3g]\n", field.Name, field.Dims, lo, hi)

	// One Engine carries the full configuration: codec, bound, lossless
	// stage. The prediction codec is the default.
	eb := 1e-3 * (hi - lo)
	eng, err := rqm.NewEngine(
		rqm.WithPredictor(rqm.Lorenzo),
		rqm.WithMode(rqm.ABS),
		rqm.WithErrorBound(eb),
		rqm.WithLossless(rqm.LosslessFlate),
	)
	if err != nil {
		log.Fatal(err)
	}

	// Build the model profile: ONE cheap sampling pass (1% of the data).
	profile, err := eng.Profile(field)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("profile built in %v from %d sampled prediction errors\n",
		profile.BuildTime, len(profile.Errors))

	// Ask the model about the error bound BEFORE compressing anything.
	est := profile.EstimateAt(eb)
	fmt.Printf("\nmodel says (eb=%.4g):\n", eb)
	fmt.Printf("  ratio %.2fx, %.3f bits/value, PSNR %.2f dB, SSIM %.4f\n",
		est.Ratio, est.TotalBitRate, est.PSNR, est.SSIM)

	// Now actually compress and compare. The output is a self-describing
	// envelope container; rqm.Decompress routes it to the right codec.
	res, err := eng.Compress(field)
	if err != nil {
		log.Fatal(err)
	}
	back, err := rqm.Decompress(res.Bytes)
	if err != nil {
		log.Fatal(err)
	}
	if err := rqm.VerifyErrorBound(field, back, rqm.ABS, eb); err != nil {
		log.Fatal(err)
	}
	psnr, err := rqm.PSNR(field, back)
	if err != nil {
		log.Fatal(err)
	}
	ssim, err := rqm.GlobalSSIM(field, back)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nmeasured (%s codec):\n", res.Stats.Codec)
	fmt.Printf("  ratio %.2fx, %.3f bits/value, PSNR %.2f dB, SSIM %.4f\n",
		res.Stats.Ratio, res.Stats.BitRate, psnr, ssim)
	fmt.Printf("  error bound verified on all %d values\n", field.Len())
}
