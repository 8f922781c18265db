package core

import (
	"math"
	"runtime"
	"testing"

	"rqm/internal/datagen"
	"rqm/internal/poison"
	"rqm/internal/predictor"
	"rqm/internal/stats"
)

// TestNewProfileAllocations holds a cold profile of nyx/temperature (Tiny,
// default options) to what it allocated while the field scan ran after the
// sampling and sort.Float64s sorted a copy of the samples: at most as many
// objects and bytes per call. The scan's goroutine costs two objects (its
// results and its closure); the sampling's strides, coordinates and stencil
// moved onto the stack pay for them.
func TestNewProfileAllocations(t *testing.T) {
	if poison.Enabled {
		t.Skip("the race detector allocates on its own account")
	}
	f := field(t, "nyx/temperature")
	for _, before := range []struct {
		kind           predictor.Kind
		objects, bytes float64
	}{
		{predictor.Lorenzo, 12, 7920},
		{predictor.Interpolation, 38, 6136},
		{predictor.Regression, 14, 22176},
	} {
		run := func() {
			if _, err := NewProfile(f, before.kind, Options{}); err != nil {
				t.Fatal(err)
			}
		}
		objects := testing.AllocsPerRun(20, run)
		// Starting a goroutine allocates one when no exited one is free to
		// reuse, now and then: the fewest bytes of five rounds are the
		// profile's own.
		bytes := math.Inf(1)
		for range 5 {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			for range 20 {
				run()
			}
			runtime.ReadMemStats(&m1)
			bytes = min(bytes, float64(m1.TotalAlloc-m0.TotalAlloc)/20)
		}
		t.Logf("%s: %v objects, %v bytes (before: %v, %v)", before.kind, objects, bytes, before.objects, before.bytes)
		if objects > before.objects || bytes > before.bytes {
			t.Errorf("%s allocates %v objects, %v bytes per profile; at most %v, %v", before.kind,
				objects, bytes, before.objects, before.bytes)
		}
	}
}

// benchFields are the fields the benchmark harness builds its corpus from.
var benchFields = []string{"nyx/temperature", "miranda/vx", "hacc/xx", "cesm/TS", "mixed/q"}

// BenchmarkNewProfile times a cold profile with the engine's default
// predictor (Lorenzo) on each benchmark field at Small scale, seed 1, and
// its three parts alone: the field scan, the error sampling, and the index
// (the sort, the |error| merge and the prefix sums). The scan runs beside
// the other two, so a profile should cost about max(scan, sample+index).
// The transform profile's split is internal/transform's BenchmarkNewProfile.
func BenchmarkNewProfile(b *testing.B) {
	for _, name := range benchFields {
		f, err := datagen.GenerateField(name, 1, datagen.Small)
		if err != nil {
			b.Fatal(err)
		}
		opts := Options{}.normalize()
		pred, err := predictor.New(predictor.Lorenzo)
		if err != nil {
			b.Fatal(err)
		}
		errs := pred.SampleErrors(f, opts.SampleRate, opts.Seed)
		_, _, lo, hi := stats.MeanVarMinMax(f.Data)
		b.Run(name+"/profile", func(b *testing.B) {
			for b.Loop() {
				if _, err := NewProfile(f, predictor.Lorenzo, opts); err != nil {
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
			for b.Loop() {
				pred.SampleErrors(f, opts.SampleRate, opts.Seed)
			}
		})
		b.Run(name+"/index", func(b *testing.B) {
			for b.Loop() {
				p := &Profile{Errors: errs, Range: hi - lo}
				p.index()
			}
		})
	}
}
