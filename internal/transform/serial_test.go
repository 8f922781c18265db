package transform

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"rqm/internal/core"
	"rqm/internal/datagen"
	"rqm/internal/grid"
	"rqm/internal/stats"
)

// serialNewProfile is NewProfile as it stood while the field scan ran
// before the block sampling on one goroutine, moved here verbatim (name
// aside). TestProfileMatchesSerial holds NewProfile to it bit for bit.
func serialNewProfile(f *grid.Field, rate float64, seed uint64, opts core.Options) (*core.Profile, error) {
	if f == nil || f.Len() == 0 {
		return nil, errors.New("transform: empty field")
	}
	rank := f.Rank()
	if rank < 1 || rank > 4 {
		return nil, errors.New("transform: unsupported rank")
	}
	if rate <= 0 || rate > 1 {
		rate = 0.01
	}
	w := grid.WalkBlocks(f.Dims, BlockEdge)
	picked := stats.SampleIndices(w.Count(), rate, seed)
	buf := make([]int64, 1<<(2*rank))
	samples := make([]float64, 0, len(picked)*len(buf))
	// The integer transform on codes ≈ the same transform on values divided
	// by the step; emulate it at a fine fixed-point resolution so rounding
	// inside the lifting is negligible relative to any realistic bound.
	_, dataVar, lo, hi := stats.MeanVarMinMax(f.Data)
	scale := 1.0
	if span := hi - lo; span > 0 {
		scale = float64(1<<40) / span
	}
	st := f.Strides()
	for _, bi := range picked {
		clear(buf)
		w.Seek(bi)
		c := w.Block().Cells(st)
		for c.Next() {
			buf[cellPos(c.Local())] = int64(math.Round(f.Data[c.Flat] * scale))
		}
		fwdBlock(buf)
		for _, c := range buf {
			samples = append(samples, float64(c)/scale)
		}
	}
	return core.NewProfileFromSamples(TransformKind, samples, f.Dims,
		f.Len(), f.Prec.Bits(), hi-lo, dataVar, opts)
}

// serialFields is every Tiny datagen field, the pinned shapes (edge blocks
// clipped on every axis), and a field whose span is so small that the
// fixed-point scale overflows to +Inf, where a clipped cell (kept at 0) and
// a zero value (0·Inf) transform differently.
func serialFields(t *testing.T) []*grid.Field {
	var out []*grid.Field
	for _, name := range append(datagen.Names(), "mixed") {
		ds, err := datagen.Generate(name, 42, datagen.Tiny)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, ds.Fields...)
	}
	for _, dims := range pinnedShapes {
		out = append(out, pinField(t, dims...))
	}
	tiny := make([]float64, 7*6)
	for i := range tiny {
		tiny[i] = float64(i%3) * 5e-324
	}
	f, err := grid.FromData("subnormal-span", grid.Float64, tiny, 7, 6)
	if err != nil {
		t.Fatal(err)
	}
	return append(out, f)
}

// plantedField returns f with ±Inf, ±0, subnormals and NaN planted every 37
// values, and with a leading NaN (which poisons the value range) if asked.
func plantedField(f *grid.Field, how string) *grid.Field {
	if how == "generated" {
		return f
	}
	g := *f
	g.Data = append([]float64(nil), f.Data...)
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
		5e-324, -5e-324, 2.2250738585072e-308, -1.5e-315}
	for i := 1; i < len(g.Data); i += 37 {
		g.Data[i] = specials[(i/37)%len(specials)]
	}
	if how == "leading-nan" {
		g.Data[0] = math.NaN()
	}
	return &g
}

// sameBits compares floats bit for bit, every NaN folded into one.
func sameBits(a, b float64) bool {
	return a == b && math.Signbit(a) == math.Signbit(b) || a != a && b != b
}

// TestProfileMatchesSerial: every field as generated and with specials
// planted — what NewProfile computes from the field (Range, DataVar, the
// coefficient samples) equals the serial profile's, and so does every
// number derived from it (the profiles index their samples with the same
// core code, which core's TestProfileMatchesSerial holds to its own serial
// reference): the spread, the sparsity, estimates and both solves.
func TestProfileMatchesSerial(t *testing.T) {
	for _, f := range serialFields(t) {
		for _, how := range []string{"generated", "interior", "leading-nan"} {
			pf := plantedField(f, how)
			for _, rate := range []float64{0.01, 0.3} {
				label := fmt.Sprintf("%s %s rate %v", f.Name, how, rate)
				got, gotErr := NewProfile(pf, rate, 7, core.Options{})
				want, wantErr := serialNewProfile(pf, rate, 7, core.Options{})
				if (gotErr == nil) != (wantErr == nil) {
					t.Fatalf("%s: error %v, serial %v", label, gotErr, wantErr)
				}
				if gotErr != nil {
					continue
				}
				scalars := [][2]float64{
					{got.Range, want.Range}, {got.DataVar, want.DataVar},
					{got.ErrStd(), want.ErrStd()}, {got.ExactZeroFrac(), want.ExactZeroFrac()},
				}
				for i, s := range scalars {
					if !sameBits(s[0], s[1]) {
						t.Fatalf("%s: scalar %d (Range, DataVar, ErrStd, ExactZeroFrac) = %g, serial %g", label, i, s[0], s[1])
					}
				}
				if len(got.Errors) != len(want.Errors) {
					t.Fatalf("%s: %d samples, serial %d", label, len(got.Errors), len(want.Errors))
				}
				for i := range got.Errors {
					if !sameBits(got.Errors[i], want.Errors[i]) {
						t.Fatalf("%s: sample %d = %g, serial %g", label, i, got.Errors[i], want.Errors[i])
					}
				}
				scale := 1.0
				if r := want.Range; r > 0 && !math.IsInf(r, 0) {
					scale = r
				}
				for _, rel := range []float64{1e-6, 1e-3, 0.1} {
					g, w := got.EstimateAt(rel*scale), want.EstimateAt(rel*scale)
					gv, wv := reflect.ValueOf(g), reflect.ValueOf(w)
					for i := 0; i < gv.NumField(); i++ {
						if gv.Field(i).Kind() == reflect.Float64 && !sameBits(gv.Field(i).Float(), wv.Field(i).Float()) ||
							gv.Field(i).Kind() != reflect.Float64 && gv.Field(i).Int() != wv.Field(i).Int() {
							t.Fatalf("%s eb=%g:\n got %+v\nwant %+v", label, rel*scale, g, w)
						}
					}
				}
				for _, solve := range []func(*core.Profile) (float64, error){
					func(p *core.Profile) (float64, error) { return p.ErrorBoundForPSNR(60) },
					func(p *core.Profile) (float64, error) { return p.ErrorBoundForRatio(8) },
				} {
					g, gErr := solve(got)
					w, wErr := solve(want)
					if fmt.Sprint(gErr) != fmt.Sprint(wErr) || !sameBits(g, w) {
						t.Fatalf("%s: solve %g (%v), serial %g (%v)", label, g, gErr, w, wErr)
					}
				}
			}
		}
	}
}
