package core

import (
	"math"
	"slices"
)

// sortFloats writes src into dst in ascending order, NaNs first, as
// sort.Float64s orders them; where sort.Float64s leaves ties in any order
// (−0 beside +0, NaNs of different bits), −0 comes first and the NaNs keep
// their key order. scratch, as long as src, is overwritten. Below radixMin
// values a NaN-free src is sorted by comparison (sortCompare); any other is
// radix-sorted (sortRadix).
func sortFloats(dst, scratch, src []float64) {
	if len(src) == 0 || len(src) < radixMin && sortCompare(dst, src) {
		return
	}
	sortRadix(dst, scratch, src)
}

// sortRadix is sortFloats' least-significant-digit radix sort over keys
// that order like the values, one byte per pass: linear in len(src), and a
// byte that every key shares costs no pass. The keys travel between dst and
// scratch as float64 bit patterns. src must not be empty.
func sortRadix(dst, scratch, src []float64) {
	var count [8][256]int
	for i, x := range src {
		k := floatKey(x)
		dst[i] = math.Float64frombits(k)
		for d := range count {
			count[d][byte(k>>(8*d))]++
		}
	}
	from, to := dst, scratch
	for d := range count {
		next, shift := &count[d], 8*d
		if next[byte(math.Float64bits(from[0])>>shift)] == len(src) {
			continue
		}
		sum := 0
		for b, c := range next {
			next[b], sum = sum, sum+c
		}
		for _, k := range from {
			b := byte(math.Float64bits(k) >> shift)
			to[next[b]] = k
			next[b]++
		}
		from, to = to, from
	}
	for i, k := range from {
		dst[i] = keyFloat(math.Float64bits(k))
	}
}

// radixMin is the fewest values sortFloats radix-sorts. Below it the radix
// sort's fixed cost, 2,048 counters cleared and summed, outweighs a
// comparison sort's n·log n, so NaN-free input goes to sortCompare.
// Measured on nyx/temperature's prediction errors (BenchmarkSortFloats), the
// two cross between 768 and 1,024 values.
const radixMin = 1024

// sortCompare copies src into dst and sorts it there by comparison, as
// sort.Float64s would, and reports true, unless src holds a NaN: then it
// reports false and leaves the NaNs' order to the radix sort's keys. −0 and
// +0 compare equal, so the comparison sort leaves them in any order; the
// zeros are rewritten −0s first, as their keys order them.
func sortCompare(dst, src []float64) bool {
	copy(dst, src)
	slices.Sort(dst)
	if dst[0] != dst[0] { // NaNs sort first
		return false
	}
	zeros, end := 0, len(dst)
	for zeros < end { // the first value ≥ 0
		if m := int(uint(zeros+end) >> 1); dst[m] < 0 {
			zeros = m + 1
		} else {
			end = m
		}
	}
	neg := 0
	for ; end < len(dst) && dst[end] == 0; end++ {
		if math.Signbit(dst[end]) {
			neg++
		}
	}
	for i := zeros; i < end; i++ {
		dst[i] = 0
		if i < zeros+neg {
			dst[i] = math.Copysign(0, -1)
		}
	}
	return true
}

// nanFirst rotates the order-preserving keys so that every NaN key, the
// positive ones from the top and the negative ones from the bottom, comes
// below −Inf's; no other key wraps.
const nanFirst = 1<<52 - 1

// floatKey maps x to a key whose unsigned order is x's order: the sign bit
// flipped for a positive value, every bit for a negative one, then rotated
// by nanFirst.
func floatKey(x float64) uint64 {
	b := math.Float64bits(x)
	return (b ^ (uint64(int64(b)>>63) | 1<<63)) + nanFirst
}

// keyFloat inverts floatKey.
func keyFloat(k uint64) float64 {
	k -= nanFirst
	return math.Float64frombits(k ^ (uint64(int64(^k)>>63) | 1<<63))
}
