package stats

import (
	"math"
	"slices"
	"sort"
	"testing"
)

// sampleIndicesRef is SampleIndices as it was before its membership moved
// into a bit set — Floyd's algorithm against a map, then a sort — kept as
// the reference the bit-set version must reproduce index for index.
func sampleIndicesRef(n int, rate float64, seed uint64) []int {
	if n <= 0 {
		return nil
	}
	if rate <= 0 {
		rate = 1.0 / float64(n)
	}
	if rate > 1 {
		rate = 1
	}
	k := int(math.Round(rate * float64(n)))
	if k < 1 {
		k = 1
	}
	if k >= n {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	rng := NewXorShift64(seed)
	chosen := make(map[int]struct{}, k)
	for j := n - k; j < n; j++ {
		t := rng.Intn(j + 1)
		if _, ok := chosen[t]; ok {
			chosen[j] = struct{}{}
		} else {
			chosen[t] = struct{}{}
		}
	}
	out := make([]int, 0, k)
	for i := range chosen {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

// TestSampleIndicesMatchesReference pins SampleIndices to the map-and-sort
// reference over an (n, rate, seed) matrix: the same indices, in the same
// order, so every profile sampled before the bit set is sampled again
// identically.
func TestSampleIndicesMatchesReference(t *testing.T) {
	for _, n := range []int{1, 2, 63, 64, 65, 127, 1000, 4097, 13824, 65536, 100003} {
		for _, rate := range []float64{-1, 0, 1e-4, 0.001, 0.01, 0.05, 0.2, 0.5, 0.9, 0.999, 1, 2} {
			for _, seed := range []uint64{0, 1, 42, 0x5eed, 1 << 63} {
				got, want := SampleIndices(n, rate, seed), sampleIndicesRef(n, rate, seed)
				if !slices.Equal(got, want) {
					t.Fatalf("n %d rate %g seed %d: %d indices differ from the reference's %d",
						n, rate, seed, len(got), len(want))
				}
			}
		}
	}
}
