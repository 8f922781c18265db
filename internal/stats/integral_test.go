package stats

import (
	"math"
	"testing"
)

// directMeanVar is the reference: two-pass mean/variance over the box,
// walking the raw data.
func directMeanVar(data []float64, dims, lo, hi []int) (float64, float64) {
	strides := make([]int, len(dims))
	s := 1
	for i := len(dims) - 1; i >= 0; i-- {
		strides[i] = s
		s *= dims[i]
	}
	var vals []float64
	var walk func(axis, off int)
	walk = func(axis, off int) {
		if axis == len(dims) {
			vals = append(vals, data[off])
			return
		}
		for c := lo[axis]; c < hi[axis]; c++ {
			walk(axis+1, off+c*strides[axis])
		}
	}
	walk(0, 0)
	var mean float64
	for _, v := range vals {
		mean += v
	}
	mean /= float64(len(vals))
	var m2 float64
	for _, v := range vals {
		d := v - mean
		m2 += d * d
	}
	return mean, m2 / float64(len(vals))
}

func TestIntegralBoxes(t *testing.T) {
	rng := NewXorShift64(99)
	ramp3 := make([]float64, 4*6*5)
	for i := range ramp3 {
		ramp3[i] = float64(i%17) - 3.5
	}
	noisy2 := make([]float64, 32*48)
	for i := range noisy2 {
		noisy2[i] = rng.Float64()*200 - 100
	}
	cases := []struct {
		name string
		data []float64
		dims []int
		lo   []int
		hi   []int
	}{
		{"1d-whole", []float64{1, 2, 3, 4, 5}, []int{5}, []int{0}, []int{5}},
		{"1d-single-element", []float64{1, 2, 3, 4, 5}, []int{5}, []int{2}, []int{3}},
		{"1d-interior", []float64{-4, 0, 4, 8, 12, -1}, []int{6}, []int{1}, []int{5}},
		{"1xN-row", noisy2[:7], []int{1, 7}, []int{0, 2}, []int{1, 6}},
		{"Nx1-col", noisy2[:7], []int{7, 1}, []int{3, 0}, []int{6, 1}},
		{"2d-corner", noisy2, []int{32, 48}, []int{0, 0}, []int{5, 5}},
		{"2d-interior", noisy2, []int{32, 48}, []int{7, 11}, []int{29, 40}},
		{"2d-single", noisy2, []int{32, 48}, []int{31, 47}, []int{32, 48}},
		{"2d-full-width-rows", noisy2, []int{32, 48}, []int{10, 0}, []int{20, 48}},
		{"3d-interior", ramp3, []int{4, 6, 5}, []int{1, 2, 1}, []int{3, 5, 4}},
		{"3d-single", ramp3, []int{4, 6, 5}, []int{2, 3, 2}, []int{3, 4, 3}},
		{"3d-slab", ramp3, []int{4, 6, 5}, []int{1, 0, 0}, []int{3, 6, 5}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			it, err := NewIntegral(tc.data, tc.dims...)
			if err != nil {
				t.Fatal(err)
			}
			wantMean, wantVar := directMeanVar(tc.data, tc.dims, tc.lo, tc.hi)
			mean, variance, err := it.MeanVar(tc.lo, tc.hi)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(mean-wantMean) > 1e-9*(1+math.Abs(wantMean)) {
				t.Errorf("mean = %v, want %v", mean, wantMean)
			}
			if math.Abs(variance-wantVar) > 1e-6*(1+wantVar) {
				t.Errorf("variance = %v, want %v", variance, wantVar)
			}
		})
	}
}

func TestIntegralConstantField(t *testing.T) {
	// Constant data is the worst case for the E[x²]−E[x]² identity: the
	// subtraction cancels almost completely and must clamp to exactly zero variance.
	data := make([]float64, 16*16)
	for i := range data {
		data[i] = 1e6 + 1.0/3.0
	}
	it, err := NewIntegral(data, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, box := range [][2][]int{
		{{0, 0}, {16, 16}},
		{{5, 5}, {6, 6}},
		{{0, 3}, {16, 9}},
	} {
		mean, variance, err := it.MeanVar(box[0], box[1])
		if err != nil {
			t.Fatal(err)
		}
		if variance != 0 {
			t.Errorf("constant field box %v variance = %v, want 0", box, variance)
		}
		if math.Abs(mean-data[0]) > 1e-6 {
			t.Errorf("constant field mean = %v, want %v", mean, data[0])
		}
	}
}

func TestIntegralDriftVsDirect(t *testing.T) {
	// Large offset + small signal stresses float accumulation: the prefix
	// sums grow to ~1e9 while per-box variance stays O(1). The SAT answer
	// must stay within a loose relative tolerance of the two-pass answer.
	rng := NewXorShift64(7)
	dims := []int{24, 40, 12}
	data := make([]float64, 24*40*12)
	for i := range data {
		data[i] = 1e5 + rng.Float64()
	}
	it, err := NewIntegral(data, dims...)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 50; trial++ {
		lo := make([]int, 3)
		hi := make([]int, 3)
		for a := 0; a < 3; a++ {
			lo[a] = int(rng.Uint64() % uint64(dims[a]))
			span := int(rng.Uint64()%uint64(dims[a]-lo[a])) + 1
			hi[a] = lo[a] + span
		}
		wantMean, wantVar := directMeanVar(data, dims, lo, hi)
		mean, variance, err := it.MeanVar(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(mean-wantMean) > 1e-6*(1+math.Abs(wantMean)) {
			t.Fatalf("box [%v,%v): mean drift %v vs %v", lo, hi, mean, wantMean)
		}
		// Absolute slack: with sums near 1e9, float64 cancellation leaves
		// ~1e-2 absolute noise in the variance; the signal variance is
		// ~1/12, so this still distinguishes smooth from turbulent.
		if math.Abs(variance-wantVar) > 0.05+0.01*wantVar {
			t.Fatalf("box [%v,%v): variance drift %v vs %v", lo, hi, variance, wantVar)
		}
	}
}

func TestIntegralErrors(t *testing.T) {
	if _, err := NewIntegral([]float64{1, 2}, 3); err == nil {
		t.Error("shape mismatch not rejected")
	}
	if _, err := NewIntegral([]float64{1}, 1, 1, 1, 1); err == nil {
		t.Error("rank 4 not rejected")
	}
	if _, err := NewIntegral(nil, 0); err == nil {
		t.Error("zero dimension not rejected")
	}
	it, err := NewIntegral([]float64{1, 2, 3, 4}, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, box := range [][2][]int{
		{{0}, {2}},        // rank mismatch
		{{0, 0}, {3, 2}},  // out of range
		{{1, 1}, {1, 2}},  // empty axis
		{{-1, 0}, {2, 2}}, // negative
		{{0, 2}, {2, 1}},  // inverted
	} {
		if _, _, err := it.MeanVar(box[0], box[1]); err == nil {
			t.Errorf("box [%v,%v) not rejected", box[0], box[1])
		}
	}
}
