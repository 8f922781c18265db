package stream

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"rqm/internal/codec"
	"rqm/internal/compressor"
	"rqm/internal/datagen"
	"rqm/internal/grid"
	"rqm/internal/partition"
)

// The pinned hashes below were captured from the writer BEFORE the partition
// layer existed (PR 7 state). The default FixedSlab partitioner must keep
// every historical path byte-identical: compression is deterministic (fixed
// sampling seed, in-order sequencer), so any drift in these hashes means the
// refactor changed the container, not just the code structure.
const (
	goldenFixedABS         = "0ec31f1395caadb057793e8f7e6ef96dabf0062c37ef7ed8074562b71cc39708"
	goldenAdaptivePSNR     = "1eb5130c1447fe99f9805bddb8ea4e4ae603f479abdbe18c46c59e588db6f216"
	goldenAdaptiveRatioILV = "c32a220459cec9c64c44d80e1f90bceb772a9f84f55f8f9d529c035be602d086"
	goldenRELPartial       = "7a1dc001cf2e3eb330f5d74cc7f1409914fe25b004183c0468357669fdbd6c08"
)

func goldenField() []float64 {
	return datagen.SpectralField("pin", grid.Float64, []int{64, 64, 16}, -1.6, -1, 1, 42).Data
}

func writeContainer(t *testing.T, vals []float64, opts ...Option) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteValues(vals); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestFixedSlabByteIdentical(t *testing.T) {
	vals := goldenField()
	cases := []struct {
		name string
		want string
		opts []Option
	}{
		{"fixed-abs", goldenFixedABS, []Option{
			WithChunkValues(16 * 1024),
			WithShape(grid.Float64, 64, 64, 16),
			WithName("pin"),
			WithCompression(codec.Options{Mode: compressor.ABS, ErrorBound: 1e-3}),
		}},
		{"adaptive-psnr", goldenAdaptivePSNR, []Option{
			WithChunkValues(16 * 1024),
			WithShape(grid.Float64, 64, 64, 16),
			WithName("pin"),
			WithAdaptive(AdaptiveBound{TargetPSNR: 70}),
		}},
		{"adaptive-ratio-ilv", goldenAdaptiveRatioILV, []Option{
			WithChunkValues(16 * 1024),
			WithShape(grid.Float64, 64, 64, 16),
			WithName("pin"),
			WithCodecName(codec.PredictionILVName),
			WithAdaptive(AdaptiveBound{TargetRatio: 8}),
		}},
		{"rel-partial-chunk", goldenRELPartial, []Option{
			WithChunkValues(10000),
			WithValueRange(-1, 1),
			WithCompression(codec.Options{Mode: compressor.REL, ErrorBound: 1e-4}),
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			got := writeContainer(t, vals, tc.opts...)
			sum := sha256.Sum256(got)
			if hex.EncodeToString(sum[:]) != tc.want {
				t.Errorf("container hash = %x, want %s (FixedSlab output drifted from the pre-partition-layer writer)",
					sum, tc.want)
			}
			// An explicit FixedSlab must plan exactly what the default does.
			explicit := writeContainer(t, vals, append(tc.opts, WithPartitioner(partition.FixedSlab{}))...)
			if !bytes.Equal(got, explicit) {
				t.Error("explicit FixedSlab differs from the default path")
			}
		})
	}
}

// Quadtree containers pinned before the per-region solve moved from the
// planner into the stream workers: moving where a leaf's bound is solved
// must not move a byte.
const (
	goldenQuadtreePSNR  = "3c0a2df7a8688c8515b542bb358855abce9127430f7852e648255fa114e350e9"
	goldenQuadtreeRatio = "202e48513d5cb8d020e95c104a210d08fc95bd868a55eecf76b972c5c480f646"
)

func TestVarianceQuadtreeByteIdentical(t *testing.T) {
	vals := goldenField()
	q := partition.VarianceQuadtree{SplitFactor: 1.1, MinRegionValues: 1024}
	cases := []struct {
		name   string
		want   string
		policy AdaptiveBound
	}{
		{"quadtree-psnr", goldenQuadtreePSNR, AdaptiveBound{TargetPSNR: 70}},
		{"quadtree-ratio", goldenQuadtreeRatio, AdaptiveBound{TargetRatio: 8}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			w, err := NewWriter(&buf,
				WithChunkValues(16*1024),
				WithShape(grid.Float64, 64, 64, 16),
				WithName("pin"),
				WithAdaptive(tc.policy),
				WithPartitioner(q))
			if err != nil {
				t.Fatal(err)
			}
			if err := w.WriteValues(vals); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if st := w.Stats(); st.Splits == 0 || st.MinBound == st.MaxBound {
				t.Fatalf("plan took %d splits, bounds [%g, %g]: want unequal leaves", st.Splits, st.MinBound, st.MaxBound)
			}
			sum := sha256.Sum256(buf.Bytes())
			if hex.EncodeToString(sum[:]) != tc.want {
				t.Errorf("container hash = %x, want %s", sum, tc.want)
			}
		})
	}
}
