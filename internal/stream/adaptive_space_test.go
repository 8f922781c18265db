package stream

import (
	"bytes"
	"math"
	"testing"

	"rqm/internal/codec"
	"rqm/internal/datagen"
	"rqm/internal/grid"
	"rqm/internal/partition"
	"rqm/internal/quality"
)

// mixedTiny is the Tiny-scale composite dataset: a smooth spectral half and a
// turbulent noisy half along the outer axis, the workload the quadtree
// partitioner exists for.
func mixedTiny(t *testing.T) *grid.Field {
	t.Helper()
	ds, err := datagen.Generate("mixed", 42, datagen.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	return ds.Fields[0]
}

func compressField(t *testing.T, f *grid.Field, opts ...Option) ([]byte, Stats) {
	t.Helper()
	var buf bytes.Buffer
	base := []Option{
		WithShape(grid.Float64, f.Dims...),
		WithName(f.Name),
	}
	w, err := NewWriter(&buf, append(base, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteValues(f.Data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), w.Stats()
}

// TestQuadtreeStreamRoundTrip checks the whole-stream partitioning path end
// to end: regions become independent container chunks, every chunk's
// recorded bound is honored by the reconstruction, and the incremental byte
// reader agrees with the whole-buffer decode.
func TestQuadtreeStreamRoundTrip(t *testing.T) {
	f := mixedTiny(t)
	// The low SplitFactor makes the planner recurse deeper where contrast is
	// mild, so the container ends up with chunks of differing sizes — the
	// geometry the rest of the assertions exercise.
	raw, st := compressField(t, f,
		WithAdaptive(AdaptiveBound{TargetPSNR: 60}),
		WithPartitioner(partition.VarianceQuadtree{SplitFactor: 1.1, MinRegionValues: 1024}))

	if st.Chunks < 2 || st.Splits == 0 {
		t.Fatalf("quadtree wrote %d chunks with %d splits, want a real split", st.Chunks, st.Splits)
	}
	if st.Values != int64(len(f.Data)) {
		t.Fatalf("stats report %d values, want %d", st.Values, len(f.Data))
	}

	dec, err := codec.Decompress(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Data) != len(f.Data) {
		t.Fatalf("decoded %d values, want %d", len(dec.Data), len(f.Data))
	}

	// Chunk sizes must vary (that is the point of spatial splitting) and each
	// chunk's reconstruction must satisfy its own recorded bound.
	idx, err := codec.LoadIndex(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if len(idx.Entries) != st.Chunks {
		t.Fatalf("index has %d entries, stats say %d chunks", len(idx.Entries), st.Chunks)
	}
	sizes := map[int]bool{}
	off := 0
	for ci, e := range idx.Entries {
		sizes[e.Values] = true
		if !(e.AbsBound > 0) {
			t.Fatalf("chunk %d has no recorded bound", ci)
		}
		for i := off; i < off+e.Values; i++ {
			if d := math.Abs(dec.Data[i] - f.Data[i]); d > e.AbsBound*(1+1e-12) {
				t.Fatalf("chunk %d value %d: |%g - %g| = %g breaks the recorded bound %g",
					ci, i, dec.Data[i], f.Data[i], d, e.AbsBound)
			}
		}
		off += e.Values
	}
	if len(sizes) < 2 {
		t.Fatalf("all %d chunks share one size; expected non-uniform chunk geometry", len(idx.Entries))
	}

	// The streaming reader must agree bit for bit with the whole-buffer path.
	r, err := NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var got []float64
	for {
		chunk, cerr := r.NextChunk()
		if cerr != nil {
			break
		}
		got = append(got, chunk...)
	}
	if len(got) != len(dec.Data) {
		t.Fatalf("reader produced %d values, want %d", len(got), len(dec.Data))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(dec.Data[i]) {
			t.Fatalf("value %d: reader %x, whole-buffer %x",
				i, math.Float64bits(got[i]), math.Float64bits(dec.Data[i]))
		}
	}
}

// TestQuadtreeMultiWriteDeterministic checks that feeding the whole-stream
// partitioner through many small WriteValues calls produces the same
// container as one big call — recompaction replans from a single buffer and
// must reproduce what a chunked ingest wrote.
func TestQuadtreeMultiWriteDeterministic(t *testing.T) {
	f := mixedTiny(t)
	opts := []Option{
		WithAdaptive(AdaptiveBound{TargetRatio: 10}),
		WithPartitioner(partition.VarianceQuadtree{}),
	}
	whole, _ := compressField(t, f, opts...)

	var buf bytes.Buffer
	w, err := NewWriter(&buf, append([]Option{
		WithShape(grid.Float64, f.Dims...),
		WithName(f.Name),
	}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	const step = 1711 // deliberately not a divisor of the field size
	for off := 0; off < len(f.Data); off += step {
		end := off + step
		if end > len(f.Data) {
			end = len(f.Data)
		}
		if err := w.WriteValues(f.Data[off:end]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(whole, buf.Bytes()) {
		t.Fatal("piecewise writes produced a different container than one write")
	}
}

// TestAdaptiveSpaceRatioWin pins the acceptance margin from ISSUE 8: on the
// mixed field at an equal PSNR target, variance-guided spatial partitioning
// must beat fixed slabs on ratio by a concrete margin while both actually
// deliver the target quality. Measured headroom at Tiny scale is ~1.08x
// (larger at Small), so 1.04x leaves room for platform noise without letting
// the win regress to nothing.
func TestAdaptiveSpaceRatioWin(t *testing.T) {
	f := mixedTiny(t)
	const target = 65.0
	pol := AdaptiveBound{TargetPSNR: target}

	fixedRaw, fixedStats := compressField(t, f, WithAdaptive(pol))
	quadRaw, quadStats := compressField(t, f,
		WithAdaptive(pol),
		WithPartitioner(partition.VarianceQuadtree{}))

	fixedDec, err := codec.Decompress(fixedRaw)
	if err != nil {
		t.Fatal(err)
	}
	quadDec, err := codec.Decompress(quadRaw)
	if err != nil {
		t.Fatal(err)
	}
	fixedPSNR, err := quality.PSNR(f, fixedDec)
	if err != nil {
		t.Fatal(err)
	}
	quadPSNR, err := quality.PSNR(f, quadDec)
	if err != nil {
		t.Fatal(err)
	}
	// Both paths must deliver the target (small solver slack allowed).
	const slack = 1.0
	if fixedPSNR < target-slack {
		t.Fatalf("fixed slabs delivered %.2f dB, want >= %.2f", fixedPSNR, target-slack)
	}
	if quadPSNR < target-slack {
		t.Fatalf("quadtree delivered %.2f dB, want >= %.2f", quadPSNR, target-slack)
	}
	const margin = 1.04
	if quadStats.Ratio < margin*fixedStats.Ratio {
		t.Fatalf("adaptive-space ratio %.3f vs fixed %.3f: win %.3fx below the %.2fx margin",
			quadStats.Ratio, fixedStats.Ratio, quadStats.Ratio/fixedStats.Ratio, margin)
	}
	t.Logf("equal-PSNR win: fixed %.2f@%.1fdB, quadtree %.2f@%.1fdB (%.2fx)",
		fixedStats.Ratio, fixedPSNR, quadStats.Ratio, quadPSNR,
		quadStats.Ratio/fixedStats.Ratio)
}
