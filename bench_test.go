// Benchmarks regenerating every table and figure of the paper's evaluation
// (one testing.B benchmark per artifact; see DESIGN.md §15), plus the
// ablation benches for the design choices called out in DESIGN.md §15 and
// end-to-end pipeline benchmarks of the public API.
//
// The experiment benches run at the Quick (tiny) scale so `go test -bench=.`
// finishes in minutes; `cmd/experiments` runs the same artifacts at full
// scale.
package rqm_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"testing"

	"rqm"
	"rqm/internal/compressor"
	"rqm/internal/experiments"
	"rqm/internal/partition"
)

func benchExperiment(b *testing.B, run func(experiments.Config, io.Writer) error) {
	b.Helper()
	cfg := experiments.Quick()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := run(cfg, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableI regenerates the dataset inventory (paper Table I).
func BenchmarkTableI(b *testing.B) {
	benchExperiment(b, func(c experiments.Config, w io.Writer) error {
		_, err := experiments.TableI(c, w)
		return err
	})
}

// BenchmarkTableII regenerates the model-accuracy table (paper Table II).
func BenchmarkTableII(b *testing.B) {
	benchExperiment(b, func(c experiments.Config, w io.Writer) error {
		_, err := experiments.TableII(c, w)
		return err
	})
}

// BenchmarkFigure3 regenerates the encoder-efficiency separation (Fig. 3).
func BenchmarkFigure3(b *testing.B) {
	benchExperiment(b, func(c experiments.Config, w io.Writer) error {
		_, err := experiments.Figure3(c, w)
		return err
	})
}

// BenchmarkFigure4 regenerates the sampling-rate study (Fig. 4).
func BenchmarkFigure4(b *testing.B) {
	benchExperiment(b, func(c experiments.Config, w io.Writer) error {
		_, err := experiments.Figure4(c, w)
		return err
	})
}

// BenchmarkFigure5 regenerates bit-rate estimation accuracy (Fig. 5).
func BenchmarkFigure5(b *testing.B) {
	benchExperiment(b, func(c experiments.Config, w io.Writer) error {
		_, err := experiments.Figure5(c, w)
		return err
	})
}

// BenchmarkFigure6 regenerates PSNR estimation accuracy (Fig. 6).
func BenchmarkFigure6(b *testing.B) {
	benchExperiment(b, func(c experiments.Config, w io.Writer) error {
		_, err := experiments.Figure6(c, w)
		return err
	})
}

// BenchmarkFigure7 regenerates SSIM estimation accuracy (Fig. 7).
func BenchmarkFigure7(b *testing.B) {
	benchExperiment(b, func(c experiments.Config, w io.Writer) error {
		_, err := experiments.Figure7(c, w)
		return err
	})
}

// BenchmarkFigure8 regenerates FFT quality-degradation estimation (Fig. 8).
func BenchmarkFigure8(b *testing.B) {
	benchExperiment(b, func(c experiments.Config, w io.Writer) error {
		_, err := experiments.Figure8(c, w)
		return err
	})
}

// BenchmarkFigure9 regenerates the modeling-vs-TAE cost comparison (Fig. 9).
func BenchmarkFigure9(b *testing.B) {
	benchExperiment(b, func(c experiments.Config, w io.Writer) error {
		_, err := experiments.Figure9(c, w)
		return err
	})
}

// BenchmarkFigure10 regenerates the predictor rate-distortion study (Fig. 10).
func BenchmarkFigure10(b *testing.B) {
	benchExperiment(b, func(c experiments.Config, w io.Writer) error {
		_, err := experiments.Figure10(c, w)
		return err
	})
}

// BenchmarkFigure11 regenerates the memory-limit control study (Fig. 11).
func BenchmarkFigure11(b *testing.B) {
	benchExperiment(b, func(c experiments.Config, w io.Writer) error {
		_, err := experiments.Figure11(c, w)
		return err
	})
}

// BenchmarkFigure12 regenerates in-situ per-timestep optimization (Fig. 12).
func BenchmarkFigure12(b *testing.B) {
	benchExperiment(b, func(c experiments.Config, w io.Writer) error {
		_, err := experiments.Figure12(c, w)
		return err
	})
}

// BenchmarkFigure13 regenerates the snapshot ratio-quality comparison (Fig. 13).
func BenchmarkFigure13(b *testing.B) {
	benchExperiment(b, func(c experiments.Config, w io.Writer) error {
		_, err := experiments.Figure13(c, w)
		return err
	})
}

// BenchmarkFigure14 regenerates the parallel dump-time comparison (Fig. 14).
func BenchmarkFigure14(b *testing.B) {
	benchExperiment(b, func(c experiments.Config, w io.Writer) error {
		_, err := experiments.Figure14(c, w)
		return err
	})
}

// Ablation benches (DESIGN.md §15).

// BenchmarkAblationCorrectionLayer measures Eq. 9 on/off accuracy.
func BenchmarkAblationCorrectionLayer(b *testing.B) {
	benchExperiment(b, func(c experiments.Config, w io.Writer) error {
		_, err := experiments.AblationCorrectionLayer(c, w)
		return err
	})
}

// BenchmarkAblationErrorDistribution measures Eq. 11 vs Eq. 10 accuracy.
func BenchmarkAblationErrorDistribution(b *testing.B) {
	benchExperiment(b, func(c experiments.Config, w io.Writer) error {
		_, err := experiments.AblationErrorDistribution(c, w)
		return err
	})
}

// BenchmarkAblationSampleRate measures accuracy vs sampling rate.
func BenchmarkAblationSampleRate(b *testing.B) {
	benchExperiment(b, func(c experiments.Config, w io.Writer) error {
		_, err := experiments.AblationSampleRate(c, w)
		return err
	})
}

// BenchmarkAblationAnchors measures low-rate anchors vs pure Eq. 2.
func BenchmarkAblationAnchors(b *testing.B) {
	benchExperiment(b, func(c experiments.Config, w io.Writer) error {
		_, err := experiments.AblationAnchors(c, w)
		return err
	})
}

// BenchmarkAblationLossless measures the RLE model vs measured backends.
func BenchmarkAblationLossless(b *testing.B) {
	benchExperiment(b, func(c experiments.Config, w io.Writer) error {
		_, err := experiments.AblationLossless(c, w)
		return err
	})
}

// BenchmarkExtensionCodecSelection runs the transform-codec (ZFP-class)
// model extension and cross-codec selection.
func BenchmarkExtensionCodecSelection(b *testing.B) {
	benchExperiment(b, func(c experiments.Config, w io.Writer) error {
		_, err := experiments.ExtensionCodecSelection(c, w)
		return err
	})
}

// End-to-end pipeline benches on the public API.

func benchField(b *testing.B) *rqm.Field {
	b.Helper()
	f, err := rqm.GenerateField("nyx/temperature", 1, rqm.ScaleSmall)
	if err != nil {
		b.Fatal(err)
	}
	return f
}

// BenchmarkCompressPipeline measures full compression throughput.
func BenchmarkCompressPipeline(b *testing.B) {
	f := benchField(b)
	lo, hi := f.ValueRange()
	opts := rqm.CompressOptions{
		Predictor: rqm.Lorenzo, Mode: rqm.ABS,
		ErrorBound: (hi - lo) * 1e-3, Lossless: rqm.LosslessRLE,
	}
	b.SetBytes(f.OriginalBytes())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := compressor.Compress(f, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecompressPipeline measures full decompression throughput of a
// sealed envelope, the container whole-buffer compression writes.
func BenchmarkDecompressPipeline(b *testing.B) {
	f := benchField(b)
	lo, hi := f.ValueRange()
	c, err := rqm.CodecByName(rqm.CodecPredictionName)
	if err != nil {
		b.Fatal(err)
	}
	res, err := rqm.CompressWith(c, f, rqm.CodecOptions{
		Predictor: rqm.Lorenzo, Mode: rqm.ABS, ErrorBound: (hi - lo) * 1e-3,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(f.OriginalBytes())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rqm.Decompress(res.Bytes); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProfileBuild measures the model's one-time sampling cost — the
// quantity that makes it ~18x cheaper than trial-and-error (Fig. 9).
func BenchmarkProfileBuild(b *testing.B) {
	f := benchField(b)
	b.SetBytes(f.OriginalBytes())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rqm.NewProfile(f, rqm.Lorenzo, rqm.ModelOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEstimate measures one O(sample) model evaluation.
func BenchmarkEstimate(b *testing.B) {
	f := benchField(b)
	p, err := rqm.NewProfile(f, rqm.Lorenzo, rqm.ModelOptions{})
	if err != nil {
		b.Fatal(err)
	}
	eb := p.Range * 1e-4
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.EstimateAt(eb)
	}
}

// Codec-abstraction overhead benches: the same workload through the legacy
// direct entry point, through one registry-dispatched codec call, and
// through Engine.CompressBatch at increasing worker counts. Comparing
// ns/op (and MB/s) of the first three documents that the Codec interface,
// registry lookup, and envelope sealing add no measurable hot-path overhead;
// the batch series documents worker-pool scaling.

func benchBatchFields(b *testing.B, n int) []*rqm.Field {
	b.Helper()
	fields := make([]*rqm.Field, n)
	for i := range fields {
		f, err := rqm.GenerateField("nyx/temperature", uint64(i+1), rqm.ScaleTiny)
		if err != nil {
			b.Fatal(err)
		}
		fields[i] = f
	}
	return fields
}

func batchBytes(fields []*rqm.Field) int64 {
	var total int64
	for _, f := range fields {
		total += f.OriginalBytes()
	}
	return total
}

const benchBatchSize = 16

// BenchmarkDirectCompressBatch is the baseline: the legacy direct function
// on every field, sequentially, no interface, registry, or envelope.
func BenchmarkDirectCompressBatch(b *testing.B) {
	fields := benchBatchFields(b, benchBatchSize)
	lo, hi := fields[0].ValueRange()
	opts := rqm.CompressOptions{
		Predictor: rqm.Lorenzo, Mode: rqm.ABS,
		ErrorBound: (hi - lo) * 1e-3, Lossless: rqm.LosslessRLE,
	}
	b.SetBytes(batchBytes(fields))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range fields {
			if _, err := compressor.Compress(f, opts); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkCodecDispatchBatch is the same workload through the registry:
// codec looked up by name, every call dispatched via the Codec interface and
// sealed in the envelope, still sequential.
func BenchmarkCodecDispatchBatch(b *testing.B) {
	fields := benchBatchFields(b, benchBatchSize)
	lo, hi := fields[0].ValueRange()
	opts := rqm.CodecOptions{
		Predictor: rqm.Lorenzo, Mode: rqm.ABS,
		ErrorBound: (hi - lo) * 1e-3, Lossless: rqm.LosslessRLE,
	}
	b.SetBytes(batchBytes(fields))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := rqm.CodecByName(rqm.CodecPredictionName)
		if err != nil {
			b.Fatal(err)
		}
		for _, f := range fields {
			if _, err := rqm.CompressWith(c, f, opts); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func benchEngineBatch(b *testing.B, workers int) {
	fields := benchBatchFields(b, benchBatchSize)
	lo, hi := fields[0].ValueRange()
	eng, err := rqm.NewEngine(
		rqm.WithPredictor(rqm.Lorenzo),
		rqm.WithMode(rqm.ABS),
		rqm.WithErrorBound((hi-lo)*1e-3),
		rqm.WithLossless(rqm.LosslessRLE),
		rqm.WithConcurrency(workers),
	)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.SetBytes(batchBytes(fields))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.CompressBatch(ctx, fields); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineBatch1/4/8 run the registry-dispatched worker-pool path.
// At 1 worker the comparison against BenchmarkCodecDispatchBatch isolates
// the pool overhead; 4 and 8 document scaling.
func BenchmarkEngineBatch1(b *testing.B) { benchEngineBatch(b, 1) }
func BenchmarkEngineBatch4(b *testing.B) { benchEngineBatch(b, 4) }
func BenchmarkEngineBatch8(b *testing.B) { benchEngineBatch(b, 8) }

// ---------------------------------------------------------------------------
// Streaming pipeline benchmarks: MB/s through the chunked writer/reader at
// varying worker counts. SetBytes reports throughput, so the workers=N rows
// read directly as the pipeline's scaling curve on a multi-core machine.

// benchStreamField synthesizes one medium field reused by the stream benches.
func benchStreamField(b *testing.B) *rqm.Field {
	b.Helper()
	f, err := rqm.GenerateField("nyx/temperature", 42, rqm.ScaleSmall)
	if err != nil {
		b.Fatal(err)
	}
	return f
}

func benchStreamWriter(b *testing.B, workers int, opts ...rqm.StreamOption) {
	f := benchStreamField(b)
	lo, hi := f.ValueRange()
	base := []rqm.StreamOption{
		rqm.WithStreamShape(f.Prec, f.Dims...),
		rqm.WithChunkSize(1 << 16),
		rqm.WithStreamWorkers(workers),
		rqm.WithStreamCompression(rqm.CodecOptions{
			Predictor: rqm.Lorenzo, Mode: rqm.ABS, ErrorBound: (hi - lo) * 1e-3,
		}),
	}
	b.SetBytes(int64(f.Len() * 8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := rqm.NewWriter(io.Discard, append(base, opts...)...)
		if err != nil {
			b.Fatal(err)
		}
		if err := w.WriteValues(f.Data); err != nil {
			b.Fatal(err)
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStreamWriter is the acceptance throughput curve: MB/s must scale
// with the worker count on a multi-core runner.
func BenchmarkStreamWriter(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			benchStreamWriter(b, workers)
		})
	}
}

// BenchmarkStreamWriterAdaptive prices the per-chunk model pass: the same
// pipeline with the ratio-quality model solving every chunk's bound.
func BenchmarkStreamWriterAdaptive(b *testing.B) {
	benchStreamWriter(b, 4,
		rqm.WithAdaptiveBound(rqm.AdaptiveBound{TargetPSNR: 60}),
		rqm.WithStreamModel(rqm.ModelOptions{SampleRate: 0.01}))
}

// BenchmarkStreamWriterAdaptiveSpace prices the spatial partition path on a
// spatially non-uniform field: the quadtree buffers the stream, plans
// variance-guided regions, and the model solves each region's bound.
func BenchmarkStreamWriterAdaptiveSpace(b *testing.B) {
	f, err := rqm.GenerateField("mixed", 42, rqm.ScaleSmall)
	if err != nil {
		b.Fatal(err)
	}
	opts := []rqm.StreamOption{
		rqm.WithStreamShape(f.Prec, f.Dims...),
		rqm.WithStreamWorkers(4),
		rqm.WithAdaptiveBound(rqm.AdaptiveBound{TargetPSNR: 60}),
		rqm.WithStreamModel(rqm.ModelOptions{SampleRate: 0.01}),
		rqm.WithPartitioner(rqm.VarianceQuadtree{}),
	}
	b.SetBytes(int64(f.Len() * 8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := rqm.NewWriter(io.Discard, opts...)
		if err != nil {
			b.Fatal(err)
		}
		if err := w.WriteValues(f.Data); err != nil {
			b.Fatal(err)
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPartitionPlan isolates the quadtree planning cost — summed-area
// table build and recursive splitting; the per-leaf model solves run later,
// in the stream workers — from the compression it steers. On the small
// mixed field it is the same order as compressing the leaves, not far below.
func BenchmarkPartitionPlan(b *testing.B) {
	f, err := rqm.GenerateField("mixed", 42, rqm.ScaleSmall)
	if err != nil {
		b.Fatal(err)
	}
	c, err := rqm.CodecByName(rqm.CodecPredictionName)
	if err != nil {
		b.Fatal(err)
	}
	env := partition.Env{
		Codec:       c,
		Copts:       rqm.CodecOptions{Predictor: rqm.Lorenzo},
		Mopts:       rqm.ModelOptions{SampleRate: 0.01},
		Policy:      &rqm.AdaptiveBound{TargetPSNR: 60},
		Prec:        f.Prec,
		Dims:        f.Dims,
		ChunkValues: 1 << 18,
	}
	q := rqm.VarianceQuadtree{}
	b.SetBytes(int64(f.Len() * 8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan, err := q.Partition(f.Data, env)
		if err != nil {
			b.Fatal(err)
		}
		if len(plan.Regions) < 2 {
			b.Fatalf("planned %d regions on the mixed field", len(plan.Regions))
		}
	}
}

// BenchmarkStreamReader measures the concurrent decode path.
func BenchmarkStreamReader(b *testing.B) {
	f := benchStreamField(b)
	lo, hi := f.ValueRange()
	var buf bytes.Buffer
	w, err := rqm.NewWriter(&buf,
		rqm.WithStreamShape(f.Prec, f.Dims...),
		rqm.WithChunkSize(1<<16),
		rqm.WithStreamCompression(rqm.CodecOptions{
			Predictor: rqm.Lorenzo, Mode: rqm.ABS, ErrorBound: (hi - lo) * 1e-3,
		}))
	if err != nil {
		b.Fatal(err)
	}
	if err := w.WriteValues(f.Data); err != nil {
		b.Fatal(err)
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.SetBytes(int64(f.Len() * 8))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := rqm.NewReader(bytes.NewReader(data), rqm.WithStreamReaderWorkers(workers))
				if err != nil {
					b.Fatal(err)
				}
				for {
					if _, err := r.NextChunk(); err != nil {
						if err == io.EOF {
							break
						}
						b.Fatal(err)
					}
				}
			}
		})
	}
}
