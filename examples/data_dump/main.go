// End-to-end data management (paper §V-F): dump a simulation snapshot
// sequence through the chunked stream container, choosing each snapshot's
// error bound in situ with the ratio-quality model, and report the parallel
// dump-time breakdown on the simulated 128-rank cluster.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"rqm"
)

func main() {
	const targetPSNR = 56.0
	ds, err := rqm.GenerateDataset("rtm", 42, rqm.ScaleSmall)
	if err != nil {
		log.Fatal(err)
	}
	machine := rqm.DefaultCluster()
	dir, err := os.MkdirTemp("", "rqm-dump-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// One pipeline for every snapshot; only the bound changes. The model
	// reads the pipeline (interpolation, a lossless stage) off the engine.
	pipeline := []rqm.EngineOption{
		rqm.WithPredictor(rqm.Interpolation),
		rqm.WithLossless(rqm.LosslessFlate),
		rqm.WithMode(rqm.ABS),
	}
	modelEng, err := rqm.NewEngine(pipeline...)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("dumping %d snapshots, target PSNR %.0f dB, %d simulated ranks\n\n",
		len(ds.Fields), targetPSNR, machine.Ranks)

	var reports []rqm.DumpReport
	for _, snap := range ds.Fields {
		// In-situ optimization: profile + inverse solve (this is the part
		// trial-and-error replaces with several full compression runs).
		optStart := time.Now()
		prof, err := modelEng.Profile(snap)
		if err != nil {
			log.Fatal(err)
		}
		eb, err := prof.ErrorBoundForPSNR(targetPSNR + 3) // guard band
		if err != nil {
			log.Fatal(err)
		}
		optCPU := time.Since(optStart)

		// Write the snapshot through the chunked container in four chunks
		// (real bytes on a real file).
		compStart := time.Now()
		path := filepath.Join(dir, snap.Name[4:]+".rqz")
		eng, err := rqm.NewEngine(append([]rqm.EngineOption{rqm.WithErrorBound(eb)}, pipeline...)...)
		if err != nil {
			log.Fatal(err)
		}
		out, err := os.Create(path)
		if err != nil {
			log.Fatal(err)
		}
		w, err := eng.NewFieldStreamWriter(out, snap, rqm.WithChunkSize(snap.Len()/4))
		if err != nil {
			log.Fatal(err)
		}
		if err := w.WriteField(snap); err != nil {
			log.Fatal(err)
		}
		if err := w.Close(); err != nil {
			log.Fatal(err)
		}
		if err := out.Close(); err != nil {
			log.Fatal(err)
		}
		compCPU := time.Since(compStart)
		stored := w.Stats().BytesOut

		// Read back and verify the quality end to end.
		in, err := os.Open(path)
		if err != nil {
			log.Fatal(err)
		}
		sr, err := rqm.NewReader(in)
		if err != nil {
			log.Fatal(err)
		}
		back, err := sr.ReadAll()
		sr.Close()
		in.Close()
		if err != nil {
			log.Fatal(err)
		}
		psnr, err := rqm.PSNR(snap, back)
		if err != nil {
			log.Fatal(err)
		}

		r := machine.Dump(snap.Name, optCPU, compCPU, stored, snap.Len(), psnr)
		reports = append(reports, r)
		fmt.Println(" ", r)
	}

	var total, max time.Duration
	var bytes int64
	for _, r := range reports {
		t := r.Total()
		total += t
		if t > max {
			max = t
		}
		bytes += r.BytesWritten
	}
	fmt.Printf("\ntotal dump wall time: %.3fs (max single snapshot %.3fs)\n",
		total.Seconds(), max.Seconds())
	fmt.Printf("bytes written: %.2f MiB, baseline without compression: %.2f MiB\n",
		float64(bytes)/(1<<20), float64(ds.TotalBytes())/(1<<20))
}
