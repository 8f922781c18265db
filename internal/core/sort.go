package core

import "math"

// sortFloats writes src into dst in ascending order, NaNs first, as
// sort.Float64s orders them; where sort.Float64s leaves ties in any order
// (−0 beside +0, NaNs of different bits), −0 comes first and the NaNs keep
// their key order. scratch, as long as src, is overwritten. It is a least-
// significant-digit radix sort over keys that order like the values, one
// byte per pass: linear in len(src), and a byte that every key shares costs
// no pass. The keys travel between dst and scratch as float64 bit patterns.
func sortFloats(dst, scratch, src []float64) {
	if len(src) == 0 {
		return
	}
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
