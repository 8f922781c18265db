package partition

import (
	"fmt"
	"math"
	"testing"

	"rqm/internal/codec"
	"rqm/internal/compressor"
	"rqm/internal/core"
	"rqm/internal/datagen"
	"rqm/internal/grid"
	"rqm/internal/stats"
)

// solveRegionRef is Env.SolveRegion as it stood while it scanned the region
// for its range before profiling it, moved here verbatim (name aside) as the
// reference the solve must reproduce bit for bit.
func solveRegionRef(env Env, vals []float64, windowRange float64) (float64, *core.Profile) {
	pol := *env.Policy
	if pol.TargetPSNR > 0 && windowRange > 0 {
		if lo, hi := stats.MinMax(vals); hi > lo {
			pol.TargetPSNR = max(pol.TargetPSNR+20*math.Log10((hi-lo)/windowRange), 1)
		}
	}
	mopts := env.Mopts
	if mopts.SampleRate <= 0 || mopts.SampleRate > 1 {
		mopts.SampleRate = 0.01
	}
	if float64(len(vals))*mopts.SampleRate < minAdaptiveSamples {
		mopts.SampleRate = math.Min(1, minAdaptiveSamples/float64(len(vals)))
	}
	f, err := grid.FromData("", env.Prec, vals, len(vals))
	var eb float64
	var p *core.Profile
	if err == nil {
		p, err = env.Codec.Profile(f, env.Copts, mopts)
	}
	if err == nil {
		if pol.TargetRatio > 0 {
			eb, err = p.ErrorBoundForRatio(pol.TargetRatio)
		} else {
			eb, err = p.ErrorBoundForPSNR(pol.TargetPSNR)
		}
	}
	if err != nil || !(eb > 0) {
		lo, hi := stats.MinMax(vals)
		if eb = (hi - lo) * 1e-6; eb <= 0 {
			eb = 1e-12
		}
		return eb, nil
	}
	return eb, p
}

// requireSameSolve compares one solve against the reference's: the bound's
// bits, whether a profile came back, and the profile's range bits. It
// returns the solve's profile.
func requireSameSolve(t *testing.T, label string, env Env, vals []float64, windowRange float64) *core.Profile {
	t.Helper()
	got, gp := env.SolveRegion(vals, windowRange)
	want, wp := solveRegionRef(env, vals, windowRange)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: bound %g (%#x), reference %g (%#x)", label, got, math.Float64bits(got),
			want, math.Float64bits(want))
	}
	if (gp == nil) != (wp == nil) {
		t.Fatalf("%s: profile %v, reference %v", label, gp != nil, wp != nil)
	}
	if gp != nil && math.Float64bits(gp.Range) != math.Float64bits(wp.Range) {
		t.Fatalf("%s: profile range %g, reference %g", label, gp.Range, wp.Range)
	}
	return gp
}

// TestSolveRegionMatchesSerial: every Tiny datagen field's quadtree regions,
// solved under a PSNR and a ratio target, as their own window (windowRange
// 0) and as part of the field (its range), plus a constant region and a
// NaN-led one that take the fallback, solve to the reference's bits under
// every codec. The fields are planned at a 4,096-value chunk, so that the
// Tiny fields split into a few regions each.
func TestSolveRegionMatchesSerial(t *testing.T) {
	var fields []*grid.Field
	for _, name := range append(datagen.Names(), "mixed") {
		ds, err := datagen.Generate(name, 42, datagen.Tiny)
		if err != nil {
			t.Fatal(err)
		}
		fields = append(fields, ds.Fields...)
	}
	codecs := codec.All()
	policies := []*AdaptiveBound{{TargetPSNR: 60}, {TargetRatio: 12}}
	envFor := func(c codec.Codec, prec grid.Precision, dims []int, pol *AdaptiveBound) Env {
		return Env{
			Codec:       c,
			Copts:       codec.Options{Mode: compressor.ABS, ErrorBound: 1e-3},
			Mopts:       core.Options{SampleRate: 0.01},
			Policy:      pol,
			Prec:        prec,
			Dims:        dims,
			ChunkValues: 1 << 12,
		}
	}
	regions := 0
	for _, f := range fields {
		lo, hi := f.ValueRange()
		plan, err := VarianceQuadtree{}.Partition(f.Data, envFor(codecs[0], f.Prec, f.Dims, policies[0]))
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		for i, r := range plan.Regions {
			vals := f.Data[r.Off : r.Off+r.Len]
			for _, c := range codecs {
				for _, pol := range policies {
					env := envFor(c, f.Prec, f.Dims, pol)
					for _, wr := range []float64{0, hi - lo} {
						label := fmt.Sprintf("%s region %d [%d,+%d) %s %+v window range %g",
							f.Name, i, r.Off, r.Len, c.Name(), *pol, wr)
						requireSameSolve(t, label, env, vals, wr)
					}
				}
			}
			regions++
		}
	}
	t.Logf("%d regions of %d fields", regions, len(fields))

	constant := make([]float64, 5000)
	for i := range constant {
		constant[i] = 2.5
	}
	nanLed := datagen.SpectralField("r", grid.Float64, []int{5000}, -1.6, -1, 1, 3).Data
	nanLed[0] = math.NaN()
	for _, c := range codecs {
		for _, pol := range policies {
			env := envFor(c, grid.Float64, nil, pol)
			for _, edge := range []struct {
				name string
				vals []float64
			}{{"constant", constant}, {"nan-led", nanLed}} {
				for _, wr := range []float64{0, 7} {
					label := fmt.Sprintf("%s %s %+v window range %g", edge.name, c.Name(), *pol, wr)
					if p := requireSameSolve(t, label, env, edge.vals, wr); p != nil {
						t.Fatalf("%s: solved on a profile, not by the fallback", label)
					}
				}
			}
		}
	}
}
