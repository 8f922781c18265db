package rqm_test

import (
	"bytes"
	"math"
	"testing"

	"rqm"
	"rqm/internal/partition"
)

// quadContainer compresses the mixed composite field with the spatial
// partitioner tuned to emit chunks of differing sizes.
func quadContainer(t *testing.T) (*rqm.Field, []byte) {
	t.Helper()
	f, err := rqm.GenerateField("mixed", 42, rqm.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w, err := rqm.NewWriter(&buf,
		rqm.WithStreamShape(f.Prec, f.Dims...),
		rqm.WithStreamFieldName(f.Name),
		rqm.WithAdaptiveBound(rqm.AdaptiveBound{TargetPSNR: 60}),
		rqm.WithPartitioner(rqm.VarianceQuadtree{SplitFactor: 1.1, MinRegionValues: 1024}))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteValues(f.Data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return f, buf.Bytes()
}

// TestReadStreamChunkVariableGeometry pins random access over a container
// whose chunks hold differing value counts: every indexed chunk — visited in
// reverse, independently — must decode to exactly its slice of the full
// decompress and honor its own recorded bound.
func TestReadStreamChunkVariableGeometry(t *testing.T) {
	f, blob := quadContainer(t)
	idx, err := rqm.ReadStreamIndex(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	if len(idx.Entries) < 2 {
		t.Fatalf("container has %d chunks, test needs variable geometry", len(idx.Entries))
	}
	sizes := map[int]bool{}
	starts := make([]int, len(idx.Entries))
	off := 0
	for i, e := range idx.Entries {
		sizes[e.Values] = true
		starts[i] = off
		off += e.Values
	}
	if len(sizes) < 2 {
		t.Fatalf("all chunks share one size %v; want non-uniform", sizes)
	}
	if off != f.Len() {
		t.Fatalf("index covers %d values, field holds %d", off, f.Len())
	}

	whole, err := rqm.Decompress(blob)
	if err != nil {
		t.Fatal(err)
	}
	rs := bytes.NewReader(blob)
	for i := len(idx.Entries) - 1; i >= 0; i-- {
		e := idx.Entries[i]
		vals, err := rqm.ReadStreamChunk(rs, e)
		if err != nil {
			t.Fatalf("chunk %d: %v", i, err)
		}
		if len(vals) != e.Values {
			t.Fatalf("chunk %d decoded %d values, index says %d", i, len(vals), e.Values)
		}
		for j, v := range vals {
			if math.Float64bits(v) != math.Float64bits(whole.Data[starts[i]+j]) {
				t.Fatalf("chunk %d value %d: random access %v, sequential %v",
					i, j, v, whole.Data[starts[i]+j])
			}
			if d := math.Abs(v - f.Data[starts[i]+j]); d > e.AbsBound*(1+1e-12) {
				t.Fatalf("chunk %d value %d: error %g breaks the chunk bound %g", i, j, d, e.AbsBound)
			}
		}
	}
}

// TestAdaptiveStreamSurvivesNonFinite: a NaN or an infinity in an adaptive
// stream costs only its own region a tight bound. Tiny mixed with +Inf as
// its first value, a NaN there, or +Inf inside, written under TargetPSNR 60
// in 4,096-value chunks with fixed slabs and with the quadtree: the stream
// closes, every finite value comes back within its chunk's recorded bound
// and every non-finite one as it went in, and every chunk holding no
// non-finite value records the bound its region solves to as its own window
// (a window holding an infinity, or led by a NaN, has no finite range to
// judge a region's budget against).
func TestAdaptiveStreamSurvivesNonFinite(t *testing.T) {
	base, err := rqm.GenerateField("mixed", 42, rqm.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	c, err := rqm.CodecByName(rqm.CodecPredictionName)
	if err != nil {
		t.Fatal(err)
	}
	policy := rqm.AdaptiveBound{TargetPSNR: 60}
	// The writer's defaults: the prediction codec at REL 1e-3, which the
	// policy replaces per chunk, and a zero model configuration.
	env := partition.Env{
		Codec:  c,
		Copts:  rqm.CodecOptions{Mode: rqm.REL, ErrorBound: 1e-3},
		Policy: &policy,
		Prec:   base.Prec,
	}
	for _, plant := range []struct {
		name string
		at   int
		v    float64
	}{{"+Inf first", 0, math.Inf(1)}, {"NaN first", 0, math.NaN()}, {"+Inf inside", base.Len() / 3, math.Inf(1)}} {
		for _, part := range []rqm.Partitioner{rqm.FixedSlab{}, rqm.VarianceQuadtree{}} {
			label := plant.name + " " + part.Name()
			vals := append([]float64(nil), base.Data...)
			vals[plant.at] = plant.v
			var buf bytes.Buffer
			w, err := rqm.NewWriter(&buf,
				rqm.WithStreamShape(base.Prec, base.Dims...),
				rqm.WithChunkSize(4096),
				rqm.WithAdaptiveBound(policy),
				rqm.WithPartitioner(part))
			if err != nil {
				t.Fatal(err)
			}
			if err := w.WriteValues(vals); err != nil {
				t.Fatalf("%s: write: %v", label, err)
			}
			if err := w.Close(); err != nil {
				t.Fatalf("%s: close: %v", label, err)
			}
			idx, err := rqm.ReadStreamIndex(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			back, err := rqm.Decompress(buf.Bytes())
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			off := 0
			for i, e := range idx.Entries {
				region := vals[off : off+e.Values]
				if !(e.AbsBound > 0) || math.IsInf(e.AbsBound, 1) {
					t.Fatalf("%s chunk %d: recorded bound %g", label, i, e.AbsBound)
				}
				finite := true
				for j, v := range region {
					r := back.Data[off+j]
					switch {
					case math.IsNaN(v):
						finite = false
						if !math.IsNaN(r) {
							t.Fatalf("%s chunk %d value %d: NaN reconstructs as %g", label, i, j, r)
						}
					case math.IsInf(v, 0):
						finite = false
						if r != v {
							t.Fatalf("%s chunk %d value %d: %g reconstructs as %g", label, i, j, v, r)
						}
					case math.Abs(v-r) > e.AbsBound*(1+1e-12):
						t.Fatalf("%s chunk %d value %d: error %g breaks the chunk bound %g", label, i, j, math.Abs(v-r), e.AbsBound)
					}
				}
				if want, _ := env.SolveRegion(region, 0); finite && e.AbsBound != want {
					t.Fatalf("%s chunk %d [%d,+%d): bound %g, its own window solves to %g",
						label, i, off, e.Values, e.AbsBound, want)
				}
				off += e.Values
			}
			if off != len(vals) {
				t.Fatalf("%s: chunks cover %d of %d values", label, off, len(vals))
			}
			t.Logf("%s: %d chunks", label, len(idx.Entries))
		}
	}
}
