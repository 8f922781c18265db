package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"rqm/internal/datagen"
	"rqm/internal/predictor"
)

// FuzzSortFloatsMatchesSort: any floats come out of sortFloats, and out of
// its radix sort alone, in the order sort.Float64s gives them, compared
// through Float64bits. A −0/+0 tie and the order of NaN payloads count as
// equal, since sort.Float64s leaves both in any order and only codes and
// absolute values are read downstream; each sort must still keep every bit
// pattern (its output is a permutation of its input) and order the ties by
// key. src is left as it was.
func FuzzSortFloatsMatchesSort(f *testing.F) {
	nan := math.Float64frombits(0x7ff8000000000001)
	negNaN := math.Float64frombits(0xfff8000000000000)
	sNaN := math.Float64frombits(0x7ff0000000000001)
	negZero := math.Copysign(0, -1)
	for _, seed := range [][]float64{
		nil,
		{1.5},
		{3, 3, 3, 3},                     // every byte shared: no pass
		{1, 1 + 0x1p-52, 1 + 0x2p-52, 1}, // one byte differs: one pass, odd
		{1, 1 + 0x1p-52, 1 + 0x100p-52},  // two passes, even
		{0, negZero, 0, negZero, 5e-324, -5e-324},
		{nan, 2, negNaN, -1, sNaN, math.Inf(-1), math.Inf(1), nan},
		{math.MaxFloat64, -math.MaxFloat64, 2.2250738585072014e-308, -2.2250738585072009e-308},
		{-0.25, 0.5, -1e300, 1e-300, 7, -7, 0, negNaN},
	} {
		f.Add(floatBytes(seed))
	}
	for _, p := range adversarialProfiles(f) {
		f.Add(floatBytes(p.Errors))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		src := make([]float64, len(data)/8)
		for i := range src {
			src[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		orig := slices.Clone(src)
		want := slices.Clone(src)
		sort.Float64s(want)
		// sortFloats sorts a few NaN-free values by comparison; sortRadix
		// runs on the same input too, so that it is held at every length.
		for _, sorter := range []func(dst, scratch, src []float64){sortFloats, sortRadix} {
			checkSorted(t, sorter, src, orig, want)
		}
	})
}

// checkSorted runs one sorter on a non-empty src and holds its output to
// want, sort.Float64s' order, as FuzzSortFloatsMatchesSort describes; src
// must still equal orig after it.
func checkSorted(t *testing.T, sorter func(dst, scratch, src []float64), src, orig, want []float64) {
	t.Helper()
	if len(src) == 0 {
		return
	}
	got, scratch := make([]float64, len(src)), make([]float64, len(src))
	for i := range scratch {
		got[i], scratch[i] = math.NaN(), math.Inf(1)
	}
	sorter(got, scratch, src)
	for i := range src {
		if math.Float64bits(src[i]) != math.Float64bits(orig[i]) {
			t.Fatalf("src[%d] changed from %#x to %#x", i, math.Float64bits(orig[i]), math.Float64bits(src[i]))
		}
	}
	for i := range got {
		g, w := got[i], want[i]
		if math.Float64bits(g) != math.Float64bits(w) && !(g == 0 && w == 0) && !(g != g && w != w) {
			t.Fatalf("[%d] = %v (%#x), sort.Float64s %v (%#x)", i, g, math.Float64bits(g), w, math.Float64bits(w))
		}
		if i > 0 && floatKey(got[i-1]) > floatKey(g) {
			t.Fatalf("[%d] %#x after %#x: out of key order", i, math.Float64bits(g), math.Float64bits(got[i-1]))
		}
	}
	bitsOf := func(xs []float64) []uint64 {
		out := make([]uint64, len(xs))
		for i, x := range xs {
			out[i] = math.Float64bits(x)
		}
		slices.Sort(out)
		return out
	}
	if !slices.Equal(bitsOf(got), bitsOf(src)) {
		t.Fatalf("the output is not a permutation of the input")
	}
}

func floatBytes(xs []float64) []byte {
	out := make([]byte, 0, 8*len(xs))
	for _, x := range xs {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(x))
	}
	return out
}

// BenchmarkSortFloats times sortFloats against copying and sort.Float64s on
// the first n Lorenzo prediction errors of the Small nyx/temperature field
// (8,847 in all): a region profile sorts a few hundred samples, a whole-field
// profile thousands.
func BenchmarkSortFloats(b *testing.B) {
	f, err := datagen.GenerateField("nyx/temperature", 1, datagen.Small)
	if err != nil {
		b.Fatal(err)
	}
	opts := Options{}.normalize()
	pred, err := predictor.New(predictor.Lorenzo)
	if err != nil {
		b.Fatal(err)
	}
	errs := pred.SampleErrors(f, opts.SampleRate, opts.Seed)
	for _, n := range []int{64, 256, 1024, len(errs)} {
		src := errs[:n]
		dst, scratch := make([]float64, n), make([]float64, n)
		b.Run(fmt.Sprintf("n=%d/sortFloats", n), func(b *testing.B) {
			for b.Loop() {
				sortFloats(dst, scratch, src)
			}
		})
		b.Run(fmt.Sprintf("n=%d/sort.Float64s", n), func(b *testing.B) {
			for b.Loop() {
				copy(dst, src)
				sort.Float64s(dst)
			}
		})
	}
}
