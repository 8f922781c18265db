package fft

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
)

// The oracle: the transforms as they were before plans — Forward,
// radix2, bluestein and ForwardND, renamed and otherwise unchanged. Each
// Bluestein line recomputed its chirp and re-transformed the chirp filter,
// each radix-2 stage ran its twiddle recurrence again, and every line was a
// fresh Forward call. TestForwardMatchesReference and
// FuzzForwardNDMatchesReference hold the planned code to it bit for bit.

func refForward(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	copy(out, x)
	if n <= 1 {
		return out
	}
	if n&(n-1) == 0 {
		refRadix2(out, false)
		return out
	}
	return refBluestein(out)
}

func refRadix2(x []complex128, inverse bool) {
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

func refBluestein(x []complex128) []complex128 {
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
	refRadix2(a, false)
	refRadix2(b, false)
	for i := range a {
		a[i] *= b[i]
	}
	refRadix2(a, true)
	inv := complex(1/float64(m), 0)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		out[k] = a[k] * inv * chirp[k]
	}
	return out
}

func refForwardND(data []complex128, dims []int) ([]complex128, error) {
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
			res := refForward(line)
			for k := 0; k < d; k++ {
				out[base+k*st] = res[k]
			}
		}
	}
	return out, nil
}
