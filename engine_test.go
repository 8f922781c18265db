package rqm_test

import (
	"bytes"
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"rqm"
	"rqm/internal/compressor"
)

func batchFields(t testing.TB, n int) []*rqm.Field {
	t.Helper()
	ds, err := rqm.GenerateDataset("rtm", 42, rqm.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	fields := ds.Fields
	for len(fields) < n {
		fields = append(fields, fields...)
	}
	return fields[:n]
}

func TestEngineOptionValidation(t *testing.T) {
	if _, err := rqm.NewEngine(rqm.WithCodecName("no-such-codec")); !errors.Is(err, rqm.ErrUnknownCodec) {
		t.Fatalf("unknown codec: %v", err)
	}
	if _, err := rqm.NewEngine(rqm.WithErrorBound(-1)); err == nil {
		t.Fatal("negative bound accepted")
	}
	if _, err := rqm.NewEngine(rqm.WithConcurrency(0)); err == nil {
		t.Fatal("zero concurrency accepted")
	}
	eng, err := rqm.NewEngine(rqm.WithConcurrency(3))
	if err != nil {
		t.Fatal(err)
	}
	if eng.Concurrency() != 3 {
		t.Fatalf("concurrency = %d", eng.Concurrency())
	}
	if eng.Codec().Name() != rqm.CodecPredictionName {
		t.Fatalf("default codec = %s", eng.Codec().Name())
	}
}

func TestEngineBatchRoundTrip(t *testing.T) {
	fields := batchFields(t, 6)
	for _, codecName := range rqm.CodecNames() {
		t.Run(codecName, func(t *testing.T) {
			eng, err := rqm.NewEngine(
				rqm.WithCodecName(codecName),
				rqm.WithMode(rqm.REL),
				rqm.WithErrorBound(1e-3),
				rqm.WithConcurrency(4),
			)
			if err != nil {
				t.Fatal(err)
			}
			results, err := eng.CompressBatch(context.Background(), fields)
			if err != nil {
				t.Fatal(err)
			}
			blobs := make([][]byte, len(results))
			for i, r := range results {
				if r == nil {
					t.Fatalf("result %d is nil", i)
				}
				if r.Stats.Codec != codecName {
					t.Fatalf("result %d codec = %q", i, r.Stats.Codec)
				}
				blobs[i] = r.Bytes
			}
			back, err := eng.DecompressBatch(context.Background(), blobs)
			if err != nil {
				t.Fatal(err)
			}
			for i, b := range back {
				lo, hi := fields[i].ValueRange()
				if err := rqm.VerifyErrorBound(fields[i], b, rqm.ABS, 1e-3*(hi-lo)); err != nil {
					t.Fatalf("field %d: %v", i, err)
				}
			}
		})
	}
}

func TestEngineBatchEmptyAndError(t *testing.T) {
	eng, err := rqm.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	if res, err := eng.CompressBatch(context.Background(), nil); err != nil || len(res) != 0 {
		t.Fatalf("empty batch: %v, %d results", err, len(res))
	}
	fields := batchFields(t, 3)
	fields[1] = nil
	if _, err := eng.CompressBatch(context.Background(), fields); err == nil {
		t.Fatal("nil field accepted")
	} else if !strings.Contains(err.Error(), "field 1") {
		t.Fatalf("error does not locate the failing item: %v", err)
	}
	// A bad blob in a decompress batch surfaces the typed error.
	good, err := eng.Compress(fields[0])
	if err != nil {
		t.Fatal(err)
	}
	_, err = eng.DecompressBatch(context.Background(), [][]byte{good.Bytes, []byte("bogus!!")})
	if !errors.Is(err, rqm.ErrBadMagic) {
		t.Fatalf("bad blob error: %v", err)
	}
}

func TestEngineBatchHonorsCancellation(t *testing.T) {
	eng, err := rqm.NewEngine(rqm.WithConcurrency(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = eng.CompressBatch(ctx, batchFields(t, 4))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled batch: %v", err)
	}
}

func TestEngineMixedCodecDecompressBatch(t *testing.T) {
	// One engine decompresses containers produced by different codecs: the
	// envelope routes each blob independently.
	f := batchFields(t, 1)[0]
	lo, hi := f.ValueRange()
	eb := 1e-3 * (hi - lo)
	var blobs [][]byte
	for _, name := range rqm.CodecNames() {
		eng, err := rqm.NewEngine(rqm.WithCodecName(name), rqm.WithMode(rqm.ABS), rqm.WithErrorBound(eb))
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Compress(f)
		if err != nil {
			t.Fatal(err)
		}
		blobs = append(blobs, res.Bytes)
	}
	eng, err := rqm.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	back, err := eng.DecompressBatch(context.Background(), blobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range back {
		if err := rqm.VerifyErrorBound(f, b, rqm.ABS, eb); err != nil {
			t.Fatalf("blob %d: %v", i, err)
		}
	}

	// A bare (pre-envelope) native payload is not a container: riding in the
	// same batch it fails the batch with the typed bad-magic error.
	bare, err := compressor.Compress(f, rqm.CompressOptions{Predictor: rqm.Lorenzo, Mode: rqm.ABS, ErrorBound: eb})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.DecompressBatch(context.Background(), append(blobs, bare.Bytes)); !errors.Is(err, rqm.ErrBadMagic) {
		t.Fatalf("batch with a bare native payload: %v, want ErrBadMagic", err)
	}
}

func TestEngineSelectCodecAndBudget(t *testing.T) {
	f := batchFields(t, 1)[0]
	eng, err := rqm.NewEngine(rqm.WithModelOptions(rqm.ModelOptions{SampleRate: 0.2}))
	if err != nil {
		t.Fatal(err)
	}
	choices, err := eng.SelectCodec(f, 60)
	if err != nil {
		t.Fatal(err)
	}
	if len(choices) != len(rqm.Codecs()) {
		t.Fatalf("choices = %d, want %d", len(choices), len(rqm.Codecs()))
	}
	for i := 1; i < len(choices); i++ {
		if choices[i].Estimate.TotalBitRate < choices[i-1].Estimate.TotalBitRate-1e-9 {
			t.Fatal("choices not ranked by modeled bit-rate")
		}
	}

	plan, err := eng.CompressToBudget(f, nil, f.OriginalBytes()/8, 0.2, true)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Result.Stats.CompressedBytes > plan.BudgetBytes {
		t.Fatal("budget plan overflowed in strict mode")
	}
	if _, err := rqm.Decompress(plan.Result.Bytes); err != nil {
		t.Fatal(err)
	}
}

// TestEngineModelsItsOwnPipeline: on a sparse field the lossless stage is most
// of the ratio, so the engine's profile must describe the pipeline the engine
// runs — WithModelOptions cannot talk it out of that — and the stream writer's
// adaptive layer, solving on the same profile, must not loosen chunks to the
// value range chasing a ratio the RLE stage delivers anyway.
func TestEngineModelsItsOwnPipeline(t *testing.T) {
	f, err := rqm.GenerateField("rtm/snapshot_1", 42, rqm.ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	rle := rqm.WithLossless(rqm.LosslessRLE)
	for _, tc := range []struct {
		opts   []rqm.EngineOption
		within float64 // max(est, got) / min(est, got)
	}{
		{[]rqm.EngineOption{rle}, 4},
		{[]rqm.EngineOption{rqm.WithModelOptions(rqm.ModelOptions{UseLossless: true})}, 1.05}, // over lossless=none
		{[]rqm.EngineOption{rle, rqm.WithCodecName(rqm.CodecPredictionTANSName)}, 4},          // tANS leaves RLE nothing to win
	} {
		eng, err := rqm.NewEngine(tc.opts...)
		if err != nil {
			t.Fatal(err)
		}
		p, err := eng.Profile(f)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Compress(f)
		if err != nil {
			t.Fatal(err)
		}
		est, got := p.EstimateAt(eng.Options().ErrorBound*p.Range).Ratio, res.Stats.Ratio
		if off := math.Max(est, got) / math.Min(est, got); off > tc.within {
			t.Errorf("%s lossless=%s: estimated %.1fx, delivered %.1fx (%.1fx apart, want within %gx)",
				eng.Codec().Name(), eng.Options().Lossless, est, got, off, tc.within)
		}
	}

	eng, err := rqm.NewEngine(rle, rqm.WithConcurrency(2))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w, err := eng.NewFieldStreamWriter(&buf, f, rqm.WithAdaptiveBound(rqm.AdaptiveBound{TargetRatio: 100}))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteField(f); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	back, err := rqm.Decompress(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	psnr, err := rqm.PSNR(f, back)
	if err != nil {
		t.Fatal(err)
	}
	// Unmodelled, the stage's chunks were loosened to 42 dB for 6000x.
	if st := w.Stats(); psnr < 70 || st.Ratio < 100 {
		t.Errorf("adaptive 100x over rle: %.1fx at %.1f dB, want >= 100x at >= 70 dB", st.Ratio, psnr)
	}
}
