package transform

import (
	"testing"

	"rqm/internal/core"
	"rqm/internal/datagen"
	"rqm/internal/grid"
	"rqm/internal/stats"
)

// BenchmarkNewProfile times a cold transform profile on each benchmark
// field at Small scale, seed 1, and its three parts alone: the field scan,
// the block sampling (gather, then scale and transform) and the index
// (core.NewProfileFromSamples: the sort, the |coefficient| merge and the
// prefix sums). The scan runs beside the gather only, so a profile should
// cost about max(scan, gather) plus the rest of sample and index.
func BenchmarkNewProfile(b *testing.B) {
	for _, name := range []string{"nyx/temperature", "miranda/vx", "hacc/xx", "cesm/TS", "mixed/q"} {
		f, err := datagen.GenerateField(name, 1, datagen.Small)
		if err != nil {
			b.Fatal(err)
		}
		const rate, seed = 0.01, 0
		w := grid.WalkBlocks(f.Dims, BlockEdge)
		picked := stats.SampleIndices(w.Count(), rate, seed)
		samples := make([]float64, len(picked)<<(2*f.Rank()))
		_, dataVar, lo, hi := stats.MeanVarMinMax(f.Data)
		gatherBlocks(samples, f, picked)
		transformBlocks(samples, f, picked, hi-lo)
		b.Run(name+"/profile", func(b *testing.B) {
			for b.Loop() {
				if _, err := NewProfile(f, rate, seed, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/scan", func(b *testing.B) {
			for b.Loop() {
				stats.MeanVarMinMax(f.Data)
			}
		})
		b.Run(name+"/sample", func(b *testing.B) {
			scratch := make([]float64, len(samples))
			for b.Loop() {
				gatherBlocks(scratch, f, picked)
				transformBlocks(scratch, f, picked, hi-lo)
			}
		})
		b.Run(name+"/index", func(b *testing.B) {
			for b.Loop() {
				if _, err := core.NewProfileFromSamples(TransformKind, samples, f.Dims, f.Len(), f.Prec.Bits(),
					hi-lo, dataVar, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
