package stats

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"testing"

	"rqm/internal/poison"
)

// newIntegralRef is NewIntegral as it stood while both tables were built in
// one 3-D loop on the caller's goroutine, with the degenerate axes' strides
// tested per value; moved here verbatim (name aside) as the reference the
// table build must reproduce cell for cell.
func newIntegralRef(data []float64, dims ...int) (*Integral, error) {
	if len(dims) < 1 || len(dims) > 3 {
		return nil, fmt.Errorf("stats: integral rank %d outside 1..3", len(dims))
	}
	n := 1
	for _, d := range dims {
		if d <= 0 {
			return nil, fmt.Errorf("stats: non-positive dimension %d", d)
		}
		n *= d
	}
	if n != len(data) {
		return nil, fmt.Errorf("stats: shape %v declares %d values, data has %d", dims, n, len(data))
	}
	// Pad every axis by one so the zero border absorbs the lo-1 lookups.
	t := &Integral{dims: append([]int(nil), dims...)}
	padded := 1
	t.strides = make([]int, len(dims))
	for i := len(dims) - 1; i >= 0; i-- {
		t.strides[i] = padded
		padded *= dims[i] + 1
	}
	t.sum = make([]float64, padded)
	t.sumsq = make([]float64, padded)

	// Promote to uniform 3-D [d0, d1, d2] with leading size-1 axes; the
	// rank-1/2 tables are the 3-D build with degenerate outer loops.
	d0, d1, d2 := 1, 1, 1
	switch len(dims) {
	case 1:
		d2 = dims[0]
	case 2:
		d1, d2 = dims[0], dims[1]
	case 3:
		d0, d1, d2 = dims[0], dims[1], dims[2]
	}
	var s0, s1, s2 int
	switch len(dims) {
	case 1:
		s0, s1, s2 = 0, 0, t.strides[0]
	case 2:
		s0, s1, s2 = 0, t.strides[0], t.strides[1]
	case 3:
		s0, s1, s2 = t.strides[0], t.strides[1], t.strides[2]
	}
	// Padded strides for the degenerate axes never advance (size-1 axes),
	// so use 0 there; the inclusion–exclusion below only touches live axes.
	for i := 0; i < d0; i++ {
		for j := 0; j < d1; j++ {
			base := (i+1)*s0 + (j+1)*s1
			var rowSum, rowSq float64
			for k := 0; k < d2; k++ {
				v := data[(i*d1+j)*d2+k]
				rowSum += v
				rowSq += v * v
				idx := base + (k+1)*s2
				t.sum[idx] = rowSum
				t.sumsq[idx] = rowSq
				if s1 != 0 {
					t.sum[idx] += t.sum[idx-s1]
					t.sumsq[idx] += t.sumsq[idx-s1]
				}
				if s0 != 0 {
					t.sum[idx] += t.sum[idx-s0]
					t.sumsq[idx] += t.sumsq[idx-s0]
					if s1 != 0 {
						t.sum[idx] -= t.sum[idx-s0-s1]
						t.sumsq[idx] -= t.sumsq[idx-s0-s1]
					}
				}
			}
		}
	}
	return t, nil
}

// integralSpecials are the values planted into table inputs: NaN, ±Inf,
// ±0, subnormals and magnitudes whose squares or sums overflow.
var integralSpecials = []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	5e-324, -5e-324, 2.2250738585072e-308, -1.5e-315, math.MaxFloat64, -math.MaxFloat64, 1e200}

// requireSameIntegral compares two tables' shapes and every cell of both
// prefix tables through math.Float64bits. Any two NaNs count as equal: which
// operand's payload a float add passes on is the compiler's choice, and
// every query reads a NaN sum as NaN whatever its payload.
func requireSameIntegral(t testing.TB, label string, got, want *Integral) {
	t.Helper()
	if fmt.Sprint(got.dims, got.strides) != fmt.Sprint(want.dims, want.strides) {
		t.Fatalf("%s: dims %v strides %v, reference %v %v", label, got.dims, got.strides, want.dims, want.strides)
	}
	for _, tab := range []struct {
		name      string
		got, want []float64
	}{{"sum", got.sum, want.sum}, {"sumsq", got.sumsq, want.sumsq}} {
		if len(tab.got) != len(tab.want) {
			t.Fatalf("%s: %s has %d cells, reference %d", label, tab.name, len(tab.got), len(tab.want))
		}
		for i, g := range tab.got {
			w := tab.want[i]
			if math.Float64bits(g) != math.Float64bits(w) && !(g != g && w != w) {
				t.Fatalf("%s: %s[%d] = %g (%#x), reference %g (%#x)", label, tab.name, i,
					g, math.Float64bits(g), w, math.Float64bits(w))
			}
		}
	}
}

// TestIntegralMatchesSerial: every rank, the degenerate shapes and the
// shapes the quadtree's planDims folds to, on generated values and with
// specials planted, build tables bit-identical to the reference's.
func TestIntegralMatchesSerial(t *testing.T) {
	shapes := [][]int{
		{1}, {2}, {7}, {4096},
		{1, 1}, {1, 9}, {9, 1}, {5, 8}, {33, 17},
		{1, 1, 1}, {1, 1, 9}, {1, 9, 1}, {9, 1, 1}, {3, 4, 5}, {16, 9, 13},
		{2, 3, 20},   // planDims([2 3 4 5]): rank 4 folded into the third axis
		{10, 10},     // planDims([1 10 10]): a leading singleton dropped
		{8},          // planDims([1 1 8])
		{6, 11, 512}, // planDims([6 11 8 64])
	}
	for _, dims := range shapes {
		n := 1
		for _, d := range dims {
			n *= d
		}
		rng := NewXorShift64(uint64(n) + 11)
		data := make([]float64, n)
		for i := range data {
			data[i] = 1e3*rng.Float64() - 250
		}
		for _, how := range []string{"generated", "planted", "leading-nan"} {
			in := append([]float64(nil), data...)
			switch how {
			case "planted":
				for i := 0; i < n; i += 5 {
					in[i] = integralSpecials[(i/5)%len(integralSpecials)]
				}
			case "leading-nan":
				in[0] = math.NaN()
			}
			label := fmt.Sprintf("%v/%s", dims, how)
			want, err := newIntegralRef(in, dims...)
			if err != nil {
				t.Fatal(err)
			}
			got, err := NewIntegral(in, dims...)
			if err != nil {
				t.Fatal(err)
			}
			requireSameIntegral(t, label, got, want)
		}
	}
}

// FuzzIntegralMatchesSerial: random shapes of rank 1–3 and up to 4,096
// values, with specials planted by 3-byte records (a position, a special),
// build tables bit-identical to the reference's.
func FuzzIntegralMatchesSerial(f *testing.F) {
	f.Add(uint8(0), uint16(96), uint16(0), uint16(0), uint64(1), []byte(nil))
	f.Add(uint8(1), uint16(44), uint16(89), uint16(0), uint64(2), []byte{0, 0, 4, 7, 0, 2})
	f.Add(uint8(2), uint16(15), uint16(15), uint16(15), uint64(3), []byte{1, 0, 5, 9, 1, 1, 200, 3, 8})
	f.Add(uint8(2), uint16(0), uint16(0), uint16(4095), uint64(4), []byte{0, 0, 0})
	f.Add(uint8(1), uint16(4095), uint16(0), uint16(0), uint64(5), []byte{3, 1, 9, 3, 2, 10})
	f.Fuzz(func(t *testing.T, rank uint8, d0, d1, d2 uint16, seed uint64, plant []byte) {
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
		rng := NewXorShift64(seed)
		data := make([]float64, n)
		for i := range data {
			data[i] = 2e3*rng.Float64() - 1e3
		}
		for i := 0; i+2 < len(plant); i += 3 {
			pos := int(binary.LittleEndian.Uint16(plant[i:])) % n
			data[pos] = integralSpecials[int(plant[i+2])%len(integralSpecials)]
		}
		want, err := newIntegralRef(data, dims...)
		if err != nil {
			t.Fatal(err)
		}
		got, err := NewIntegral(data, dims...)
		if err != nil {
			t.Fatal(err)
		}
		requireSameIntegral(t, fmt.Sprint(dims), got, want)
	})
}

// TestNewIntegralAllocations holds the table build to what it allocated
// while both tables were built on the caller's goroutine (5 objects: the
// table, its shape and strides, the two prefix tables), plus two for a
// goroutine of its own (its closure and its join), and to the two tables'
// bytes plus a few hundred for everything else. The shape is picked so that
// each table is a whole number of pages.
func TestNewIntegralAllocations(t *testing.T) {
	if poison.Enabled {
		t.Skip("the race detector allocates on its own account")
	}
	dims := []int{15, 31, 63} // padded 16·32·64 cells: 256 KiB a table
	data := make([]float64, 15*31*63)
	rng := NewXorShift64(5)
	for i := range data {
		data[i] = rng.Float64()
	}
	run := func() {
		if _, err := NewIntegral(data, dims...); err != nil {
			t.Fatal(err)
		}
	}
	const maxObjects, tables, slack = 5 + 2, 2 * 8 * 16 * 32 * 64, 512
	objects := testing.AllocsPerRun(20, run)
	// Starting a goroutine allocates one when no exited one is free to
	// reuse, now and then: the fewest bytes of five rounds are the build's
	// own.
	bytes := math.Inf(1)
	for range 5 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for range 20 {
			run()
		}
		runtime.ReadMemStats(&m1)
		bytes = min(bytes, float64(m1.TotalAlloc-m0.TotalAlloc)/20)
	}
	t.Logf("%v objects, %v bytes (tables %d)", objects, bytes, tables)
	if objects > maxObjects || bytes > tables+slack {
		t.Errorf("NewIntegral allocates %v objects, %v bytes; at most %d, %d", objects, bytes,
			maxObjects, tables+slack)
	}
}

// BenchmarkNewIntegral times the table build against the serial reference
// on a field the shape of the Small mixed/q field the quadtree plans
// (96×128×128), and on a plane and a line of the same size.
func BenchmarkNewIntegral(b *testing.B) {
	const n = 96 * 128 * 128
	data := make([]float64, n)
	rng := NewXorShift64(3)
	for i := range data {
		data[i] = rng.Float64()
	}
	for _, dims := range [][]int{{96, 128, 128}, {96 * 128, 128}, {n}} {
		b.Run(fmt.Sprint(dims)+"/build", func(b *testing.B) {
			b.SetBytes(8 * n)
			for b.Loop() {
				if _, err := NewIntegral(data, dims...); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprint(dims)+"/serial", func(b *testing.B) {
			b.SetBytes(8 * n)
			for b.Loop() {
				if _, err := newIntegralRef(data, dims...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
