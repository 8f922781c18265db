// Package fft implements complex FFTs from scratch: an iterative radix-2
// Cooley–Tukey kernel for power-of-two lengths and Bluestein's chirp-z
// algorithm for arbitrary lengths, plus separable 2D/3D transforms and the
// shell-averaged power spectrum used by the Nyx-style post-hoc analysis.
package fft

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
)

// Forward computes the forward DFT of x and returns the result in a new
// slice. Any length >= 1 is supported.
func Forward(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	copy(out, x)
	if n <= 1 {
		return out
	}
	if n&(n-1) == 0 {
		radix2(out, false)
		return out
	}
	return bluestein(out)
}

// radix2 runs the iterative Cooley–Tukey FFT in place; len(x) must be a
// power of two.
func radix2(x []complex128, inverse bool) {
	n := len(x)
	// Bit-reversal permutation.
	shift := 64 - uint(bits.Len(uint(n-1)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := sign * 2 * math.Pi / float64(size)
		wStep := cmplx.Exp(complex(0, step))
		for start := 0; start < n; start += size {
			w := complex(1, 0)
			for k := 0; k < half; k++ {
				a := x[start+k]
				b := x[start+k+half] * w
				x[start+k] = a + b
				x[start+k+half] = a - b
				w *= wStep
			}
		}
	}
}

// bluestein evaluates an arbitrary-length forward DFT as a convolution, using
// a zero-padded power-of-two FFT of length >= 2n-1.
func bluestein(x []complex128) []complex128 {
	n := len(x)
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
	a := make([]complex128, m)
	b := make([]complex128, m)
	for k := 0; k < n; k++ {
		a[k] = x[k] * chirp[k]
		b[k] = cmplx.Conj(chirp[k])
	}
	for k := 1; k < n; k++ {
		b[m-k] = cmplx.Conj(chirp[k])
	}
	radix2(a, false)
	radix2(b, false)
	for i := range a {
		a[i] *= b[i]
	}
	radix2(a, true)
	inv := complex(1/float64(m), 0)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		out[k] = a[k] * inv * chirp[k]
	}
	return out
}

// ForwardND computes the separable N-D DFT of a row-major array with the
// given dims (outermost first). It transforms along each axis in turn.
func ForwardND(data []complex128, dims []int) ([]complex128, error) {
	n := 1
	for _, d := range dims {
		n *= d
	}
	if n != len(data) {
		return nil, fmt.Errorf("fft: data length %d does not match dims %v", len(data), dims)
	}
	out := make([]complex128, len(data))
	copy(out, data)
	// Strides, outermost first.
	strides := make([]int, len(dims))
	acc := 1
	for i := len(dims) - 1; i >= 0; i-- {
		strides[i] = acc
		acc *= dims[i]
	}
	line := make([]complex128, 0)
	for axis := range dims {
		d := dims[axis]
		st := strides[axis]
		if cap(line) < d {
			line = make([]complex128, d)
		}
		line = line[:d]
		// Iterate over all 1-D lines along `axis`.
		numLines := n / d
		for li := 0; li < numLines; li++ {
			// Convert line index to a base offset skipping the axis dim.
			base := 0
			rem := li
			for ax := len(dims) - 1; ax >= 0; ax-- {
				if ax == axis {
					continue
				}
				c := rem % dims[ax]
				rem /= dims[ax]
				base += c * strides[ax]
			}
			for k := 0; k < d; k++ {
				line[k] = out[base+k*st]
			}
			res := Forward(line)
			for k := 0; k < d; k++ {
				out[base+k*st] = res[k]
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
