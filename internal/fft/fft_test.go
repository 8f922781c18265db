package fft

import (
	"encoding/binary"
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"
)

// naiveDFT is the O(n^2) reference.
func naiveDFT(x []complex128, inverse bool) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for k := 0; k < n; k++ {
		var s complex128
		for j := 0; j < n; j++ {
			angle := sign * 2 * math.Pi * float64(k) * float64(j) / float64(n)
			s += x[j] * cmplx.Exp(complex(0, angle))
		}
		out[k] = s
	}
	return out
}

func maxErr(a, b []complex128) float64 {
	var m float64
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func randSignal(n int, seed int64) []complex128 {
	x := make([]complex128, n)
	s := uint64(seed)*2654435761 + 1
	next := func() float64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return float64(s>>11)/float64(1<<53)*2 - 1
	}
	for i := range x {
		x[i] = complex(next(), next())
	}
	return x
}

// forward is the 1-D transform as the library runs it: ForwardND over one
// axis.
func forward(x []complex128) []complex128 {
	out, err := ForwardND(x, []int{len(x)})
	if err != nil {
		panic(err)
	}
	return out
}

func TestForwardMatchesNaive(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 12, 16, 17, 31, 32, 100} {
		x := randSignal(n, int64(n))
		got := forward(x)
		want := naiveDFT(x, false)
		if e := maxErr(got, want); e > 1e-8*float64(n) {
			t.Fatalf("n=%d: max err %g", n, e)
		}
	}
}

// inverse is the inverse DFT written through forward alone: conjugate,
// transform, conjugate, scale by 1/N.
func inverse(x []complex128) []complex128 {
	c := make([]complex128, len(x))
	for i, v := range x {
		c[i] = cmplx.Conj(v)
	}
	c = forward(c)
	for i, v := range c {
		c[i] = cmplx.Conj(v) / complex(float64(len(x)), 0)
	}
	return c
}

func TestInverseRoundTrip(t *testing.T) {
	for _, n := range []int{1, 2, 6, 8, 15, 64, 129} {
		x := randSignal(n, int64(n)+99)
		back := inverse(forward(x))
		if e := maxErr(back, x); e > 1e-9*float64(n+1) {
			t.Fatalf("n=%d: round-trip err %g", n, e)
		}
	}
}

func TestForwardDoesNotMutateInput(t *testing.T) {
	x := randSignal(16, 5)
	cp := append([]complex128(nil), x...)
	forward(x)
	for i := range x {
		if x[i] != cp[i] {
			t.Fatal("ForwardND mutated its input")
		}
	}
}

func TestImpulseResponse(t *testing.T) {
	// DFT of a unit impulse is all-ones.
	x := make([]complex128, 8)
	x[0] = 1
	f := forward(x)
	for i, v := range f {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("bin %d = %v, want 1", i, v)
		}
	}
}

func TestSinusoidPeak(t *testing.T) {
	// A pure tone at bin 3 concentrates all energy there.
	n := 64
	x := make([]complex128, n)
	for i := range x {
		x[i] = cmplx.Exp(complex(0, 2*math.Pi*3*float64(i)/float64(n)))
	}
	f := forward(x)
	for i, v := range f {
		mag := cmplx.Abs(v)
		if i == 3 {
			if math.Abs(mag-float64(n)) > 1e-9 {
				t.Fatalf("peak bin magnitude = %v", mag)
			}
		} else if mag > 1e-9 {
			t.Fatalf("leak at bin %d: %v", i, mag)
		}
	}
}

func TestParsevalProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%63 + 1
		x := randSignal(n, seed)
		fx := forward(x)
		var et, ef float64
		for i := range x {
			et += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
			ef += real(fx[i])*real(fx[i]) + imag(fx[i])*imag(fx[i])
		}
		return math.Abs(ef-float64(n)*et) <= 1e-7*(1+ef)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestForwardNDMatchesNaiveRows(t *testing.T) {
	// 2D separability: transform of each row then each column must equal
	// ForwardND.
	const r, c = 4, 6
	data := randSignal(r*c, 77)
	nd, err := ForwardND(data, []int{r, c})
	if err != nil {
		t.Fatal(err)
	}
	// Manual separable transform.
	tmp := make([]complex128, r*c)
	copy(tmp, data)
	for i := 0; i < r; i++ {
		row := forward(tmp[i*c : (i+1)*c])
		copy(tmp[i*c:(i+1)*c], row)
	}
	col := make([]complex128, r)
	for j := 0; j < c; j++ {
		for i := 0; i < r; i++ {
			col[i] = tmp[i*c+j]
		}
		res := forward(col)
		for i := 0; i < r; i++ {
			tmp[i*c+j] = res[i]
		}
	}
	if e := maxErr(nd, tmp); e > 1e-9 {
		t.Fatalf("2D mismatch: %g", e)
	}
}

func TestForwardNDBadDims(t *testing.T) {
	if _, err := ForwardND(make([]complex128, 5), []int{2, 3}); err == nil {
		t.Fatal("dims mismatch accepted")
	}
}

func TestForwardND3DDCComponent(t *testing.T) {
	dims := []int{3, 4, 5}
	n := 60
	data := make([]complex128, n)
	var sum complex128
	for i := range data {
		data[i] = complex(float64(i%7), 0)
		sum += data[i]
	}
	nd, err := ForwardND(data, dims)
	if err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(nd[0]-sum) > 1e-9 {
		t.Fatalf("DC = %v, want %v", nd[0], sum)
	}
}

func TestPowerSpectrumConstantField(t *testing.T) {
	dims := []int{8, 8}
	data := make([]float64, 64)
	for i := range data {
		data[i] = 3
	}
	ps, err := PowerSpectrum(data, dims)
	if err != nil {
		t.Fatal(err)
	}
	// All energy at DC: shell 0 = (3*64)^2, all other shells ~0.
	if math.Abs(ps[0]-float64(192*192)) > 1e-6 {
		t.Fatalf("DC power = %v", ps[0])
	}
	for i := 1; i < len(ps); i++ {
		if ps[i] > 1e-9 {
			t.Fatalf("shell %d power = %v", i, ps[i])
		}
	}
}

func TestPowerSpectrumTone(t *testing.T) {
	// cos wave with wavenumber 2 along x in a 16x16 grid → power in shell 2.
	dims := []int{16, 16}
	data := make([]float64, 256)
	for i := 0; i < 16; i++ {
		for j := 0; j < 16; j++ {
			data[i*16+j] = math.Cos(2 * math.Pi * 2 * float64(j) / 16)
		}
	}
	ps, err := PowerSpectrum(data, dims)
	if err != nil {
		t.Fatal(err)
	}
	best := 0
	for i := 1; i < len(ps); i++ {
		if ps[i] > ps[best] {
			best = i
		}
	}
	if best != 2 {
		t.Fatalf("peak shell = %d, want 2 (spectrum %v)", best, ps)
	}
}

func TestSpectrumRatio(t *testing.T) {
	r := SpectrumRatio([]float64{1, 2, 0}, []float64{2, 2, 5})
	if r[0] != 2 || r[1] != 1 || r[2] != 1 {
		t.Fatalf("SpectrumRatio = %v", r)
	}
}

func BenchmarkForward4096(b *testing.B) {
	x := randSignal(4096, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		forward(x)
	}
}

func BenchmarkForwardND64cube(b *testing.B) {
	x := randSignal(64*64*64, 2)
	dims := []int{64, 64, 64}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ForwardND(x, dims); err != nil {
			b.Fatal(err)
		}
	}
}

// sameBits reports whether got and want hold the same values bit for bit.
// Any two NaNs count as equal: which operand's payload a float instruction
// passes on is not fixed when the compiler may commute a multiply or add.
func sameBits(got, want []complex128) (int, bool) {
	if len(got) != len(want) {
		return -1, false
	}
	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
	}
	for i := range got {
		if !same(real(got[i]), real(want[i])) || !same(imag(got[i]), imag(want[i])) {
			return i, false
		}
	}
	return 0, true
}

func TestForwardMatchesReference(t *testing.T) {
	lengths := []int{450, 900, 1024, 2048}
	for n := 1; n <= 300; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		x := randSignal(n, int64(n)+7)
		cp := append([]complex128(nil), x...)
		got := forward(x)
		if i, ok := sameBits(got, refForward(x)); !ok {
			t.Fatalf("n=%d: bin %d differs from the reference", n, i)
		}
		if _, ok := sameBits(x, cp); !ok {
			t.Fatalf("n=%d: ForwardND mutated its input", n)
		}
	}
}

// specials are the values FuzzForwardNDMatchesReference plants in its
// input: signed zeros, infinities, NaN, subnormals and the extremes.
var specials = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.Float64frombits(0x000fffffffffffff), 1e-310, math.MaxFloat64, -math.MaxFloat64,
}

// FuzzForwardNDMatchesReference holds ForwardND to the reference transform
// bit for bit on rank-1 to rank-3 shapes of up to 4096 values. Each 3-byte
// record of plant puts one special value into the real or imaginary part of
// one element.
func FuzzForwardNDMatchesReference(f *testing.F) {
	f.Add(uint8(0), uint16(96), uint16(0), uint16(0), int64(1), []byte(nil))
	f.Add(uint8(1), uint16(44), uint16(89), uint16(0), int64(2), []byte{0, 0, 4, 7, 0, 2})
	f.Add(uint8(2), uint16(23), uint16(23), uint16(23), int64(3), []byte{1, 0, 5, 9, 1, 1, 200, 3, 8})
	f.Add(uint8(2), uint16(31), uint16(31), uint16(3), int64(4), []byte{0, 0, 0})
	f.Add(uint8(0), uint16(4095), uint16(0), uint16(0), int64(5), []byte{3, 1, 6, 3, 2, 10})
	f.Fuzz(func(t *testing.T, rank uint8, d0, d1, d2 uint16, seed int64, plant []byte) {
		budget := 4096
		var dims []int
		for _, raw := range []uint16{d0, d1, d2}[:1+int(rank)%3] {
			d := 1 + int(raw)%budget
			dims = append(dims, d)
			budget /= d
		}
		n := 1
		for _, d := range dims {
			n *= d
		}
		data := randSignal(n, seed)
		for i := 0; i+2 < len(plant); i += 3 {
			pos := int(binary.LittleEndian.Uint16(plant[i:])) % (2 * n)
			v := specials[int(plant[i+2])%len(specials)]
			if pos%2 == 0 {
				data[pos/2] = complex(v, imag(data[pos/2]))
			} else {
				data[pos/2] = complex(real(data[pos/2]), v)
			}
		}
		cp := append([]complex128(nil), data...)
		want, err := refForwardND(data, dims)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ForwardND(data, dims)
		if err != nil {
			t.Fatal(err)
		}
		if i, ok := sameBits(got, want); !ok {
			t.Fatalf("dims %v: value %d = %v, reference %v", dims, i, got[i], want[i])
		}
		if _, ok := sameBits(data, cp); !ok {
			t.Fatalf("dims %v: ForwardND mutated its input", dims)
		}
	})
}

// TestForwardNDAllocs holds ForwardND to a constant number of allocations
// whatever its line count: the output, the plan list, one plan per distinct
// length and the two reused buffers. Per-line allocation made these
// 8,644 (Bluestein, 5 per line) and 3,076 (radix-2, 1 per line).
func TestForwardNDAllocs(t *testing.T) {
	for _, d := range []int{24, 32} {
		x := randSignal(d*d*d, int64(d))
		dims := []int{d, d, d}
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := ForwardND(x, dims); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 10 {
			t.Errorf("%d³: %v allocations per ForwardND, want at most 10", d, allocs)
		}
	}
}

func TestForwardNDRejectsEmptyAxis(t *testing.T) {
	if _, err := ForwardND(nil, []int{3, 0}); err == nil {
		t.Fatal("a zero-length axis was accepted")
	}
}
