// Memory compression with a target footprint (paper use-case §IV-B): plan
// an error bound so the compressed data fits an assigned memory budget,
// targeting 80% of the budget to absorb model error, with strict
// re-compression on the rare overflow. The planning runs on the codec
// interface, so the same call works for any registered backend.
package main

import (
	"fmt"
	"log"

	"rqm"
)

func main() {
	field, err := rqm.GenerateField("miranda/vx", 42, rqm.ScaleSmall)
	if err != nil {
		log.Fatal(err)
	}
	eng, err := rqm.NewEngine(
		rqm.WithPredictor(rqm.Interpolation),
		rqm.WithLossless(rqm.LosslessFlate),
	)
	if err != nil {
		log.Fatal(err)
	}

	// One sampling pass serves every budget below.
	profile, err := eng.Profile(field)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("field %q: %s original\n", field.Name, mb(field.OriginalBytes()))
	// Emulate shrinking GPU memory budgets: 1/8, 1/16, 1/32 of original.
	for _, frac := range []int64{8, 16, 32} {
		budget := field.OriginalBytes() / frac
		plan, err := eng.CompressToBudget(field, profile, budget, 0.2, true)
		if err != nil {
			log.Fatal(err)
		}
		used := plan.Result.Stats.CompressedBytes
		fmt.Printf("budget %s: planned eb %.4g -> used %s (%.1f%% of budget, %d round(s))\n",
			mb(budget), plan.ErrorBound, mb(used), 100*float64(used)/float64(budget), plan.Rounds)

		// Show the quality cost of the tighter budgets.
		dec, err := rqm.Decompress(plan.Result.Bytes)
		if err != nil {
			log.Fatal(err)
		}
		psnr, err := rqm.PSNR(field, dec)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("           reconstruction quality: %.2f dB PSNR\n", psnr)
	}
}

func mb(n int64) string { return fmt.Sprintf("%.2f MiB", float64(n)/(1<<20)) }
