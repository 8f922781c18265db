// Package fft implements complex FFTs from scratch: an iterative radix-2
// Cooley–Tukey kernel for power-of-two lengths and Bluestein's chirp-z
// algorithm for arbitrary lengths, plus separable N-D transforms and the
// shell-averaged power spectrum used by the Nyx-style post-hoc analysis.
//
// A transform of one length runs from a plan holding everything that does
// not depend on the data (twiddles and the bit-reversal swaps; for
// Bluestein the chirp and the chirp filter's transform). ForwardND builds
// one plan per distinct axis length per call and transforms every line in
// place; plans are never shared between calls. The results are
// bit-identical to computing each line from scratch, which oracle_test.go
// holds the code to.
package fft

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
)

// plan is everything a transform of one length needs that does not depend
// on the data. A power-of-two length needs only its radix-2 twiddles and
// bit-reversal swaps; any other length is Bluestein's chirp-z convolution,
// which needs the chirp, the twiddles and swaps of the padded power-of-two
// length m (twiddles in both directions) and the transform of the chirp
// filter.
type plan struct {
	n      int
	tw     []complex128 // forward twiddles of n, or of m for Bluestein
	swaps  []int32      // bit-reversal swaps of n, or of m for Bluestein
	chirp  []complex128 // Bluestein: exp(-i*pi*k^2/n), k < n
	itw    []complex128 // Bluestein: inverse twiddles of m
	filter []complex128 // Bluestein: forward transform of the conjugate chirp, length m
}

func newPlan(n int) *plan {
	if n&(n-1) == 0 {
		return &plan{n: n, tw: twiddles(n, -1), swaps: bitReversal(n)}
	}
	// Chirp: w[k] = exp(-i*pi*k^2/n). Use k^2 mod 2n to avoid overflow
	// and precision loss for large k.
	chirp := make([]complex128, n)
	for k := 0; k < n; k++ {
		kk := (int64(k) * int64(k)) % int64(2*n)
		angle := -math.Pi * float64(kk) / float64(n)
		chirp[k] = cmplx.Exp(complex(0, angle))
	}
	m := 1
	for m < 2*n-1 {
		m <<= 1
	}
	p := &plan{n: n, tw: twiddles(m, -1), swaps: bitReversal(m), chirp: chirp, itw: twiddles(m, 1)}
	b := make([]complex128, m)
	for k := 0; k < n; k++ {
		b[k] = cmplx.Conj(chirp[k])
	}
	for k := 1; k < n; k++ {
		b[m-k] = cmplx.Conj(chirp[k])
	}
	radix2(b, p.tw, p.swaps)
	p.filter = b
	return p
}

// twiddles returns the butterfly factors of every radix-2 stage of a
// length-n transform (sign -1 forward, +1 inverse). Stage `size` holds its
// size/2 factors at offset size/2-1, so a table serves every smaller power
// of two as a prefix. Each factor comes from the recurrence w *= wStep
// started at 1 in its stage, the exact value the butterfly loop once
// computed in place.
func twiddles(n int, sign float64) []complex128 {
	tw := make([]complex128, n-1)
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := sign * 2 * math.Pi / float64(size)
		wStep := cmplx.Exp(complex(0, step))
		w := complex(1, 0)
		stage := tw[half-1 : size-1]
		for k := range stage {
			stage[k] = w
			w *= wStep
		}
	}
	return tw
}

// bitReversal returns the swaps of the bit-reversal permutation of a
// power-of-two length n as (i, j) pairs, i < j, in ascending i. Of 2^b
// indices, the 2^⌈b/2⌉ bit palindromes stay put.
func bitReversal(n int) []int32 {
	b := bits.Len(uint(n - 1))
	swaps := make([]int32, 0, n-1<<((b+1)/2))
	shift := 64 - uint(b)
	for i := 0; i < n; i++ {
		if j := int(bits.Reverse64(uint64(i)) >> shift); j > i {
			swaps = append(swaps, int32(i), int32(j))
		}
	}
	return swaps
}

// radix2 runs the iterative Cooley–Tukey FFT in place; len(x) must be the
// power of two swaps (bitReversal's) was built for, no larger than tw's.
func radix2(x, tw []complex128, swaps []int32) {
	n := len(x)
	for k := 0; k < len(swaps); k += 2 {
		i, j := swaps[k], swaps[k+1]
		x[i], x[j] = x[j], x[i]
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		ws := tw[half-1 : size-1]
		for start := 0; start < n; start += size {
			lo := x[start : start+half]
			hi := x[start+half : start+size]
			for k, w := range ws {
				a := lo[k]
				b := hi[k] * w
				lo[k] = a + b
				hi[k] = a - b
			}
		}
	}
}

// transform computes the forward DFT of x in place. scratch is used only
// by a Bluestein plan and must hold len(p.filter) values.
func (p *plan) transform(x, scratch []complex128) {
	if p.chirp == nil {
		radix2(x, p.tw, p.swaps)
		return
	}
	// Bluestein: the DFT as a convolution with the chirp filter, evaluated
	// by a zero-padded power-of-two FFT of length m >= 2n-1.
	m := len(p.filter)
	a := scratch[:m]
	for k, c := range p.chirp {
		a[k] = x[k] * c
	}
	clear(a[len(x):])
	radix2(a, p.tw, p.swaps)
	for i := range a {
		a[i] *= p.filter[i]
	}
	radix2(a, p.itw, p.swaps)
	inv := complex(1/float64(m), 0)
	for k, c := range p.chirp {
		x[k] = a[k] * inv * c
	}
}

// ForwardND computes the separable N-D DFT of a row-major array with the
// given dims (outermost first) and returns it in a new slice; data is not
// modified. It transforms along each axis in turn, with one plan per
// distinct axis length, and every line in place through one line buffer and
// one Bluestein scratch, so a call allocates the same few buffers whatever
// its line count.
func ForwardND(data []complex128, dims []int) ([]complex128, error) {
	n := 1
	for _, d := range dims {
		if d < 1 {
			return nil, fmt.Errorf("fft: dims %v must be positive", dims)
		}
		n *= d
	}
	if n != len(data) {
		return nil, fmt.Errorf("fft: data length %d does not match dims %v", len(data), dims)
	}
	out := make([]complex128, len(data))
	copy(out, data)
	// One plan per distinct length, shared by the axes of that length; a
	// length-1 axis is the identity and has none.
	plans := make([]*plan, len(dims))
	maxLine, maxScratch := 0, 0
	for ax, d := range dims {
		if d == 1 {
			continue
		}
		for _, p := range plans[:ax] {
			if p != nil && p.n == d {
				plans[ax] = p
				break
			}
		}
		if plans[ax] == nil {
			plans[ax] = newPlan(d)
		}
		maxLine = max(maxLine, d)
		maxScratch = max(maxScratch, len(plans[ax].filter))
	}
	line := make([]complex128, maxLine)
	scratch := make([]complex128, maxScratch)
	// A line along an axis of length d and stride st starts at o+i for
	// every block o of d*st values and every i < st.
	st := n
	for ax, d := range dims {
		st /= d
		p := plans[ax]
		if p == nil {
			continue
		}
		if st == 1 {
			for o := 0; o < n; o += d {
				p.transform(out[o:o+d], scratch)
			}
			continue
		}
		x := line[:d]
		for o := 0; o < n; o += d * st {
			for i := o; i < o+st; i++ {
				for k := range x {
					x[k] = out[i+k*st]
				}
				p.transform(x, scratch)
				for k, v := range x {
					out[i+k*st] = v
				}
			}
		}
	}
	return out, nil
}

// PowerSpectrum computes the shell-averaged isotropic power spectrum P(k) of
// a real N-D field: for each integer wavenumber shell |k| in [0, kmax], the
// mean of |F|^2 over Fourier modes in that shell. This mirrors the FFT-based
// analysis used for the Nyx cosmology data. Returns the per-shell means;
// shell 0 is the DC mode.
func PowerSpectrum(data []float64, dims []int) ([]float64, error) {
	c := make([]complex128, len(data))
	for i, v := range data {
		c[i] = complex(v, 0)
	}
	spec, err := ForwardND(c, dims)
	if err != nil {
		return nil, err
	}
	// Maximum shell: half the smallest dimension (Nyquist of the coarsest
	// axis keeps shells fully populated).
	minDim := dims[0]
	for _, d := range dims {
		if d < minDim {
			minDim = d
		}
	}
	kmax := minDim / 2
	sums := make([]float64, kmax+1)
	counts := make([]int64, kmax+1)
	// Walk all modes; fold frequencies above Nyquist to negative values.
	coord := make([]int, len(dims))
	for idx := range spec {
		// Decode coordinates.
		rem := idx
		for ax := len(dims) - 1; ax >= 0; ax-- {
			coord[ax] = rem % dims[ax]
			rem /= dims[ax]
		}
		var k2 float64
		for ax, c0 := range coord {
			k := c0
			if k > dims[ax]/2 {
				k -= dims[ax]
			}
			k2 += float64(k) * float64(k)
		}
		shell := int(math.Round(math.Sqrt(k2)))
		if shell > kmax {
			continue
		}
		p := real(spec[idx])*real(spec[idx]) + imag(spec[idx])*imag(spec[idx])
		sums[shell] += p
		counts[shell]++
	}
	for i := range sums {
		if counts[i] > 0 {
			sums[i] /= float64(counts[i])
		}
	}
	return sums, nil
}

// SpectrumRatio returns P_b(k)/P_a(k) per shell (1 where P_a is ~0). The
// cosmology acceptance criterion in the paper's lineage is that the
// decompressed/original spectrum ratio stays within 1±tolerance.
func SpectrumRatio(pa, pb []float64) []float64 {
	n := len(pa)
	if len(pb) < n {
		n = len(pb)
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		if math.Abs(pa[i]) < 1e-300 {
			out[i] = 1
			continue
		}
		out[i] = pb[i] / pa[i]
	}
	return out
}
