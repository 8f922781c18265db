package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMomentsBasic(t *testing.T) {
	var m Moments
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		m.Add(x)
	}
	if m.N() != 8 {
		t.Fatalf("N = %d", m.N())
	}
	if !almostEq(m.Mean(), 5, 1e-12) {
		t.Fatalf("Mean = %v", m.Mean())
	}
	if !almostEq(m.Variance(), 4, 1e-12) {
		t.Fatalf("Variance = %v", m.Variance())
	}
	if !almostEq(m.StdDev(), 2, 1e-12) {
		t.Fatalf("StdDev = %v", m.StdDev())
	}
	if m.Min() != 2 || m.Max() != 9 || m.Range() != 7 {
		t.Fatalf("min/max/range = %v/%v/%v", m.Min(), m.Max(), m.Range())
	}
}

func TestMeanVarTwoPass(t *testing.T) {
	mean, v := MeanVar([]float64{1, 2, 3, 4})
	if !almostEq(mean, 2.5, 1e-15) || !almostEq(v, 1.25, 1e-15) {
		t.Fatalf("MeanVar = %v, %v", mean, v)
	}
	mean, v = MeanVar(nil)
	if mean != 0 || v != 0 {
		t.Fatalf("MeanVar(nil) = %v, %v", mean, v)
	}
}

func TestMinMax(t *testing.T) {
	lo, hi := MinMax([]float64{3, -1, 4, 1, 5})
	if lo != -1 || hi != 5 {
		t.Fatalf("MinMax = %v, %v", lo, hi)
	}
	lo, hi = MinMax(nil)
	if lo != 0 || hi != 0 {
		t.Fatalf("MinMax(nil) = %v, %v", lo, hi)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	if q := Quantile(xs, 0); q != 1 {
		t.Fatalf("q0 = %v", q)
	}
	if q := Quantile(xs, 1); q != 5 {
		t.Fatalf("q1 = %v", q)
	}
	if q := Quantile(xs, 0.5); q != 3 {
		t.Fatalf("median = %v", q)
	}
	if q := Quantile(xs, 0.25); q != 2 {
		t.Fatalf("q25 = %v", q)
	}
	// Input must not be reordered.
	if xs[0] != 5 {
		t.Fatal("Quantile mutated input")
	}
}

// The fused scan must answer exactly what the separate ones do, NaN-poisoned
// extrema and signed zeros included.
func TestMeanVarMinMaxMatchesSeparateScans(t *testing.T) {
	rng := NewXorShift64(3)
	long := make([]float64, 1000)
	for i := range long {
		long[i] = rng.NormFloat64() * 1e3
	}
	for _, xs := range [][]float64{
		nil, {7}, {3, -1, 4, 1, 5}, long,
		{math.NaN(), 1, 2}, {1, math.NaN(), 2}, {math.Copysign(0, -1), 0}, {math.Inf(-1), 1, math.Inf(1)},
	} {
		mean, v, lo, hi := MeanVarMinMax(xs)
		wantMean, wantV := MeanVar(xs)
		wantLo, wantHi := MinMax(xs)
		got := [4]uint64{math.Float64bits(mean), math.Float64bits(v), math.Float64bits(lo), math.Float64bits(hi)}
		want := [4]uint64{math.Float64bits(wantMean), math.Float64bits(wantV), math.Float64bits(wantLo), math.Float64bits(wantHi)}
		if got != want {
			t.Errorf("MeanVarMinMax(%v) = %v %v %v %v, separate scans %v %v %v %v", xs, mean, v, lo, hi, wantMean, wantV, wantLo, wantHi)
		}
	}
}

func TestCodeHistogram(t *testing.T) {
	h := NewCodeHistogram()
	h.Add(0, 80)
	h.Add(1, 10)
	h.Add(-1, 10)
	if h.Total != 100 {
		t.Fatalf("Total = %d", h.Total)
	}
	if p := h.P(0); !almostEq(p, 0.8, 1e-15) {
		t.Fatalf("P(0) = %v", p)
	}
	p0, c := h.TopP()
	if !almostEq(p0, 0.8, 1e-15) || c != 0 {
		t.Fatalf("TopP = %v, %d", p0, c)
	}
	want := -(0.8*math.Log2(0.8) + 0.2*math.Log2(0.1))
	if e := h.Entropy(); !almostEq(e, want, 1e-12) {
		t.Fatalf("Entropy = %v want %v", e, want)
	}
}

func TestEntropyUniform(t *testing.T) {
	h := NewCodeHistogram()
	for c := int32(0); c < 16; c++ {
		h.Add(c, 7)
	}
	if e := h.Entropy(); !almostEq(e, 4, 1e-12) {
		t.Fatalf("uniform-16 entropy = %v, want 4", e)
	}
}

func TestSampleIndicesProperties(t *testing.T) {
	f := func(seed uint64, nRaw uint16, rRaw uint8) bool {
		n := int(nRaw)%5000 + 1
		rate := float64(rRaw%100+1) / 100.0
		idx := SampleIndices(n, rate, seed)
		if len(idx) == 0 {
			return false
		}
		seen := map[int]bool{}
		prev := -1
		for _, i := range idx {
			if i < 0 || i >= n || seen[i] || i <= prev {
				return false
			}
			seen[i] = true
			prev = i
		}
		want := int(math.Round(rate * float64(n)))
		if want < 1 {
			want = 1
		}
		if want > n {
			want = n
		}
		return len(idx) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSampleIndicesDeterministic(t *testing.T) {
	a := SampleIndices(1000, 0.05, 42)
	b := SampleIndices(1000, 0.05, 42)
	if len(a) != len(b) {
		t.Fatal("nondeterministic length")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("nondeterministic sample")
		}
	}
	c := SampleIndices(1000, 0.05, 43)
	same := true
	for i := range a {
		if i < len(c) && a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds gave identical samples")
	}
}

func TestSampleIndicesFullRate(t *testing.T) {
	idx := SampleIndices(10, 1.0, 7)
	if len(idx) != 10 {
		t.Fatalf("full-rate sample len = %d", len(idx))
	}
	for i, v := range idx {
		if v != i {
			t.Fatalf("full-rate sample not identity at %d: %d", i, v)
		}
	}
}

func TestXorShiftRanges(t *testing.T) {
	rng := NewXorShift64(123)
	for i := 0; i < 1000; i++ {
		if f := rng.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
		if v := rng.Intn(17); v < 0 || v >= 17 {
			t.Fatalf("Intn out of range: %v", v)
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	rng := NewXorShift64(99)
	var m Moments
	for i := 0; i < 200000; i++ {
		m.Add(rng.NormFloat64())
	}
	if math.Abs(m.Mean()) > 0.02 {
		t.Fatalf("normal mean = %v", m.Mean())
	}
	if math.Abs(m.Variance()-1) > 0.03 {
		t.Fatalf("normal variance = %v", m.Variance())
	}
}
