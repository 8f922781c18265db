package predictor

import (
	"encoding/binary"
	"math"
	"testing"

	"rqm/internal/datagen"
	"rqm/internal/grid"
)

// maxFuzzValues bounds the fields FuzzSamplerMatchesWalk builds.
const maxFuzzValues = 1 << 15

// walkErrors is what the model assumes it samples: the prediction errors
// kind's walk makes over f's original values, from an emitter that records
// pred − work[idx] and leaves work alone. The walk's first point, which
// Lorenzo and interpolation never sample, is left out.
func walkErrors(t *testing.T, kind Kind, f *grid.Field) []float64 {
	t.Helper()
	skip := kind != Regression
	var out []float64
	if _, err := Encode(kind, f.Dims, f.Data, emitFunc(func(idx int, pred float64) {
		if skip {
			skip = false
			return
		}
		out = append(out, pred-f.Data[idx])
	})); err != nil {
		t.Fatal(err)
	}
	return out
}

// sameBits is bit equality with every NaN equal: which NaN payload a sum
// keeps depends on its operand order, which the compiler may swap.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

// shapeBytes encodes dims as fuzzField reads them.
func shapeBytes(dims ...int) []byte {
	var b []byte
	for _, d := range dims {
		b = binary.LittleEndian.AppendUint16(b, uint16(d))
	}
	return b
}

// fuzzField builds the field FuzzSamplerMatchesWalk checks. shape holds
// rank 1–4 dimensions as little-endian uint16s. The values are a smooth
// signal whose sums round, with raw's little-endian float64 bits written
// over the first len(raw)/8 of them.
func fuzzField(shape, raw []byte) (*grid.Field, bool) {
	if len(shape) < 2 || len(shape) > 8 || len(shape)%2 != 0 {
		return nil, false
	}
	dims := make([]int, len(shape)/2)
	n := 1
	for d := range dims {
		dims[d] = int(binary.LittleEndian.Uint16(shape[2*d:]))
		if n *= dims[d]; n == 0 || n > maxFuzzValues {
			return nil, false
		}
	}
	vals := make([]float64, n)
	for i := range vals {
		x := float64(i)
		vals[i] = math.Sin(x/7) + 0.3*math.Cos(x/3) + 1e-3*x
	}
	for i := 0; i < n && 8*i+8 <= len(raw); i++ {
		vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	f, err := grid.FromData("fuzz", grid.Float64, vals, dims...)
	return f, err == nil
}

// FuzzSamplerMatchesWalk holds every scheme's sampler to its walk: at rate
// 1, SampleErrors must return, bit for bit and in walk order, the errors
// the walk makes over the original values (walkErrors), for every kind at
// every rank it supports.
func FuzzSamplerMatchesWalk(f *testing.F) {
	vals := func(vs ...float64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	for _, dims := range [][]int{{1}, {2}, {1000}, {1, 7}, {37, 29}, {3, 1, 5}, {11, 13, 17}, {24, 24, 24},
		{2, 3, 4, 5}, {9, 10, 11, 12}} {
		f.Add(shapeBytes(dims...), []byte(nil), uint64(1))
	}
	// Signed zeros, non-finite values and subnormals among a point's
	// neighbours, at every rank.
	negZero := math.Copysign(0, -1)
	special := vals(negZero, negZero, 0, negZero, math.NaN(), negZero, math.Inf(1), negZero, negZero,
		math.Inf(-1), 5e-324, negZero, 0, negZero, negZero, -5e-324, 1e308, 1e308, negZero, 0)
	for _, dims := range [][]int{{20}, {4, 5}, {2, 3, 4}, {2, 2, 2, 3}} {
		f.Add(shapeBytes(dims...), special, uint64(42))
	}
	// One datagen field per rank.
	for _, name := range []string{"hacc/xx", "cesm/TS", "nyx/velocity_z", "exafel/raw"} {
		fld, err := datagen.GenerateField(name, 42, datagen.Tiny)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(shapeBytes(fld.Dims...), vals(fld.Data...), uint64(7))
	}
	f.Fuzz(func(t *testing.T, shape, raw []byte, seed uint64) {
		fld, ok := fuzzField(shape, raw)
		if !ok {
			t.Skip()
		}
		for _, kind := range Kinds() {
			p, err := New(kind)
			if err != nil {
				t.Fatal(err)
			}
			if !p.Supports(fld.Rank()) {
				continue
			}
			got, want := p.SampleErrors(fld, 1, seed), walkErrors(t, kind, fld)
			if len(got) != len(want) {
				t.Fatalf("%s %v: sampler returns %d errors, walk makes %d", kind, fld.Dims, len(got), len(want))
			}
			differ, first := 0, -1
			for i := range want {
				if !sameBits(got[i], want[i]) {
					if differ++; first < 0 {
						first = i
					}
				}
			}
			if differ > 0 {
				t.Errorf("%s %v: %d of %d errors differ from the walk's; first at %d: sampled %v (%x), walk %v (%x)",
					kind, fld.Dims, differ, len(want), first, got[first], math.Float64bits(got[first]),
					want[first], math.Float64bits(want[first]))
			}
		}
	})
}

// TestInterpolationFallsBackToOneSample: a rate that picks no sweep point
// still yields one error, the walk's at the first point of the finest sweep
// along dimension 0, and none when that dimension has no such point.
func TestInterpolationFallsBackToOneSample(t *testing.T) {
	for _, dims := range [][]int{{9}, {5, 7}, {4, 3, 6}, {1, 8}, {1, 1, 1, 1}} {
		fld, ok := fuzzField(shapeBytes(dims...), nil)
		if !ok {
			t.Fatalf("%v: no field", dims)
		}
		for _, kind := range []Kind{Interpolation, InterpolationCubic} {
			p, _ := New(kind)
			got := p.SampleErrors(fld, 0, 1)
			if dims[0] == 1 {
				if len(got) != 0 {
					t.Fatalf("%s %v: %d errors, want none", kind, dims, len(got))
				}
				continue
			}
			first := fld.Strides()[0]
			var want float64
			if _, err := Encode(kind, dims, fld.Data, emitFunc(func(idx int, pred float64) {
				if idx == first {
					want = pred - fld.Data[idx]
				}
			})); err != nil {
				t.Fatal(err)
			}
			if len(got) != 1 || !sameBits(got[0], want) {
				t.Fatalf("%s %v: errors %v, want [%v]", kind, dims, got, want)
			}
		}
	}
}
