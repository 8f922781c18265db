package predictor

import (
	"fmt"
	"math"
	"testing"

	"rqm/internal/datagen"
	"rqm/internal/grid"
)

// emitFunc adapts a function to Emitter.
type emitFunc func(idx int, pred float64)

func (f emitFunc) Emit(idx int, pred float64) { f(idx, pred) }

// nop discards every prediction: the walk keeps the original values, so
// predictions stay finite and every index is visited against known data.
var nop = emitFunc(func(int, float64) {})

// meanAbs is the mean absolute value of xs.
func meanAbs(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += math.Abs(x)
	}
	return s / float64(len(xs))
}

// coverageCheck runs kind's walk losslessly (work keeps the original
// values): Encode must visit every index exactly once with a finite
// prediction, and Decode, reconstructing the exact values, must replay the
// same order with the same predictions.
func coverageCheck(t *testing.T, kind Kind, dims []int) {
	t.Helper()
	n := totalLen(dims)
	work := make([]float64, n)
	for i := range work {
		work[i] = float64(i%17) * 0.5
	}
	seen := make([]int, n)
	var order1, order2 []int
	var preds1, preds2 []float64
	aux, err := Encode(kind, dims, work, emitFunc(func(idx int, pred float64) {
		if idx < 0 || idx >= n {
			t.Fatalf("%s: index %d out of range", kind, idx)
		}
		if math.IsNaN(pred) || math.IsInf(pred, 0) {
			t.Fatalf("%s: non-finite prediction at %d", kind, idx)
		}
		seen[idx]++
		order1 = append(order1, idx)
		preds1 = append(preds1, pred)
	}))
	if err != nil {
		t.Fatalf("%s dims %v: %v", kind, dims, err)
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("%s dims %v: index %d visited %d times", kind, dims, i, c)
		}
	}
	work2 := make([]float64, n)
	if err := Decode(kind, dims, work2, aux, emitFunc(func(idx int, pred float64) {
		order2 = append(order2, idx)
		preds2 = append(preds2, pred)
		work2[idx] = work[idx] // exact reconstruction
	})); err != nil {
		t.Fatal(err)
	}
	if len(order1) != len(order2) {
		t.Fatalf("%s: walk lengths differ: %d vs %d", kind, len(order1), len(order2))
	}
	for i := range order1 {
		if order1[i] != order2[i] || preds1[i] != preds2[i] {
			t.Fatalf("%s: walk diverges at step %d: index %d vs %d, prediction %g vs %g",
				kind, i, order1[i], order2[i], preds1[i], preds2[i])
		}
	}
}

func TestWalkCoverageAllKinds(t *testing.T) {
	shapes := [][]int{{1}, {7}, {64}, {5, 9}, {16, 16}, {4, 6, 5}, {8, 8, 8}, {3, 4, 5, 2}, {7, 1, 9, 2}}
	for _, kind := range Kinds() {
		p, err := New(kind)
		if err != nil {
			t.Fatal(err)
		}
		for _, dims := range shapes {
			if !p.Supports(len(dims)) {
				continue
			}
			coverageCheck(t, kind, dims)
		}
	}
}

func TestUnsupportedRankRejected(t *testing.T) {
	work := make([]float64, 6)
	if _, err := Encode(Lorenzo2, []int{2, 3}, work, nop); err == nil {
		t.Fatal("Lorenzo2 accepted rank 2")
	}
	if err := Decode(Lorenzo2, []int{2, 3}, work, nil, nop); err == nil {
		t.Fatal("Lorenzo2 decompress accepted rank 2")
	}
	for _, kind := range Kinds() {
		if _, err := Encode(kind, []int{1, 1, 2, 1, 3}, work, nop); err == nil {
			t.Fatalf("%s accepted rank 5", kind)
		}
	}
	if _, err := Encode(Transform, []int{6}, work, nop); err == nil {
		t.Fatal("Transform accepted as a walk")
	}
}

func TestWorkLengthMismatch(t *testing.T) {
	if _, err := Encode(Lorenzo, []int{4, 4}, make([]float64, 7), nop); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestLorenzo2DExactOnAffine(t *testing.T) {
	// Order-1 Lorenzo reproduces any affine field exactly away from borders.
	dims := []int{8, 8}
	work := make([]float64, 64)
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			work[i*8+j] = 3 + 2*float64(i) - 1.5*float64(j)
		}
	}
	if _, err := Encode(Lorenzo, dims, work, emitFunc(func(idx int, pred float64) {
		i, j := idx/8, idx%8
		if i > 0 && j > 0 {
			if math.Abs(pred-work[idx]) > 1e-12 {
				t.Fatalf("interior affine prediction error at (%d,%d): pred %v want %v", i, j, pred, work[idx])
			}
		}
	})); err != nil {
		t.Fatal(err)
	}
}

func TestLorenzo3DExactOnTrilinearCorners(t *testing.T) {
	dims := []int{6, 6, 6}
	work := make([]float64, 216)
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			for k := 0; k < 6; k++ {
				work[(i*6+j)*6+k] = 1 + float64(i) + 2*float64(j) + 3*float64(k)
			}
		}
	}
	if _, err := Encode(Lorenzo, dims, work, emitFunc(func(idx int, pred float64) {
		k := idx % 6
		j := idx / 6 % 6
		i := idx / 36
		if i > 0 && j > 0 && k > 0 && math.Abs(pred-work[idx]) > 1e-12 {
			t.Fatalf("3D affine prediction error at (%d,%d,%d)", i, j, k)
		}
	})); err != nil {
		t.Fatal(err)
	}
}

func TestLorenzo2ExactOnLinear(t *testing.T) {
	work := make([]float64, 32)
	for i := range work {
		work[i] = 5 - 0.75*float64(i)
	}
	if _, err := Encode(Lorenzo2, []int{32}, work, emitFunc(func(idx int, pred float64) {
		if idx >= 2 && math.Abs(pred-work[idx]) > 1e-12 {
			t.Fatalf("order-2 Lorenzo missed linear trend at %d", idx)
		}
	})); err != nil {
		t.Fatal(err)
	}
}

func TestInterpolationExactOnLinear1D(t *testing.T) {
	// Linear interpolation reproduces a linear ramp exactly at every
	// midpoint (boundary extrapolation copies are the exception).
	n := 17
	work := make([]float64, n)
	for i := range work {
		work[i] = 2 * float64(i)
	}
	bad := 0
	if _, err := Encode(Interpolation, []int{n}, work, emitFunc(func(idx int, pred float64) {
		if idx == 0 {
			return
		}
		if math.Abs(pred-work[idx]) > 1e-12 {
			bad++
		}
	})); err != nil {
		t.Fatal(err)
	}
	// Only points predicted by one-sided copy (no right neighbor) may miss.
	if bad > 5 {
		t.Fatalf("linear field mispredicted at %d interior points", bad)
	}
}

func TestCubicBeatsLinearOnSmooth(t *testing.T) {
	// On an analytically smooth band-limited field, 4-point cubic
	// interpolation (O(h^4)) must beat linear midpoint interpolation
	// (O(h^2)). Random spectral fields are too rough for this to hold.
	const n = 65
	dims := []int{n, n}
	base := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			base[i*n+j] = math.Sin(2*math.Pi*float64(i)/n) * math.Cos(2*math.Pi*float64(j)/n)
		}
	}
	sumAbs := func(kind Kind) float64 {
		var s float64
		work := append([]float64(nil), base...)
		if _, err := Encode(kind, dims, work, emitFunc(func(idx int, pred float64) {
			s += math.Abs(pred - work[idx])
		})); err != nil {
			t.Fatal(err)
		}
		return s
	}
	el, ec := sumAbs(Interpolation), sumAbs(InterpolationCubic)
	if ec >= el {
		t.Fatalf("cubic (%.4g) not better than linear (%.4g) on smooth field", ec, el)
	}
}

func TestRegressionExactOnAffineBlocks(t *testing.T) {
	dims := []int{12, 12}
	work := make([]float64, 144)
	for i := 0; i < 12; i++ {
		for j := 0; j < 12; j++ {
			work[i*12+j] = -4 + 0.5*float64(i) + 0.25*float64(j)
		}
	}
	if _, err := Encode(Regression, dims, work, emitFunc(func(idx int, pred float64) {
		if math.Abs(pred-work[idx]) > 1e-4 { // float32 coefficient rounding
			t.Fatalf("regression missed affine field at %d: pred %v want %v", idx, pred, work[idx])
		}
	})); err != nil {
		t.Fatal(err)
	}
}

func TestRegressionAuxRoundTrip(t *testing.T) {
	dims := []int{13, 7}
	n := 91
	orig := make([]float64, n)
	for i := range orig {
		orig[i] = math.Sin(float64(i) * 0.3)
	}
	var predsC []float64
	aux, err := Encode(Regression, dims, append([]float64(nil), orig...), emitFunc(func(idx int, pred float64) {
		predsC = append(predsC, pred)
	}))
	if err != nil {
		t.Fatal(err)
	}
	var predsD []float64
	work := make([]float64, n)
	if err := Decode(Regression, dims, work, aux, emitFunc(func(idx int, pred float64) {
		predsD = append(predsD, pred)
		work[idx] = orig[idx]
	})); err != nil {
		t.Fatal(err)
	}
	for i := range predsC {
		if predsC[i] != predsD[i] {
			t.Fatalf("prediction mismatch at step %d: %v vs %v", i, predsC[i], predsD[i])
		}
	}
}

func TestRegressionAuxLengthValidated(t *testing.T) {
	if err := Decode(Regression, []int{12}, make([]float64, 12), []byte{1, 2, 3}, nop); err == nil {
		t.Fatal("bad aux length accepted")
	}
}

func TestAuxBitsPerValue(t *testing.T) {
	// 12x12 → 4 blocks × 3 coefficients × 32 bits / 144 values.
	got := AuxBitsPerValue([]int{12, 12})
	want := float64(4*3*32) / 144
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("AuxBitsPerValue = %v, want %v", got, want)
	}
}

func TestSampleErrorsMatchFullDistribution(t *testing.T) {
	f, err := datagen.GenerateField("cesm/TS", 7, datagen.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []Kind{Lorenzo, Interpolation, Regression} {
		p, _ := New(kind)
		full := p.SampleErrors(f, 1.0, 1)
		sampled := p.SampleErrors(f, 0.05, 1)
		if len(sampled) == 0 {
			t.Fatalf("%s: empty sample", kind)
		}
		if len(sampled) >= len(full) {
			t.Fatalf("%s: sample (%d) not smaller than full (%d)", kind, len(sampled), len(full))
		}
		mf, ms := meanAbs(full), meanAbs(sampled)
		if mf == 0 {
			continue
		}
		if rel := math.Abs(ms-mf) / mf; rel > 0.5 {
			t.Fatalf("%s: sampled mean|err| %.4g deviates %.0f%% from full %.4g", kind, ms, rel*100, mf)
		}
	}
}

func TestSampleErrorsDeterministic(t *testing.T) {
	f, _ := datagen.GenerateField("cesm/TS", 7, datagen.Tiny)
	p, _ := New(Lorenzo)
	a := p.SampleErrors(f, 0.02, 42)
	b := p.SampleErrors(f, 0.02, 42)
	if len(a) != len(b) {
		t.Fatal("nondeterministic sample size")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("nondeterministic sample")
		}
	}
}

func TestParseKind(t *testing.T) {
	for _, k := range Kinds() {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Fatalf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := ParseKind("bogus"); err == nil {
		t.Fatal("bogus kind accepted")
	}
}

func TestInterpolationSmallerErrorsThanLorenzoOnSmooth(t *testing.T) {
	// On a very smooth field the interpolation predictor should produce
	// prediction errors comparable to or smaller than Lorenzo's (this is the
	// regime where the paper's Fig. 10 shows interpolation winning).
	f, err := datagen.GenerateField("scale/PRES", 11, datagen.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	lor, _ := New(Lorenzo)
	itp, _ := New(InterpolationCubic)
	el := meanAbs(lor.SampleErrors(f, 1, 1))
	ei := meanAbs(itp.SampleErrors(f, 1, 1))
	if ei > el*20 {
		t.Fatalf("interpolation errors (%.4g) wildly above Lorenzo (%.4g)", ei, el)
	}
}

// benchWalk times kind's walk over a field of dims, the same 2^18 values
// at every rank.
func benchWalk(b *testing.B, kind Kind, dims ...int) {
	work := make([]float64, totalLen(dims))
	for i := range work {
		work[i] = math.Sin(float64(i) * 1e-3)
	}
	b.SetBytes(int64(len(work) * 8))
	for b.Loop() {
		if _, err := Encode(kind, dims, work, nop); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLorenzoWalk2D(b *testing.B) { benchWalk(b, Lorenzo, 512, 512) }
func BenchmarkLorenzoWalk3D(b *testing.B) { benchWalk(b, Lorenzo, 64, 64, 64) }
func BenchmarkLorenzoWalk4D(b *testing.B) { benchWalk(b, Lorenzo, 16, 16, 32, 32) }
func BenchmarkInterpWalk3D(b *testing.B)  { benchWalk(b, Interpolation, 64, 64, 64) }

// BenchmarkSampleErrors3D times the model's sampling pass over the 64³
// field the walk benchmarks use, at the model's default rate (0.01) and at
// rate 1, where the prediction arithmetic dominates.
func BenchmarkSampleErrors3D(b *testing.B) {
	work := make([]float64, 64*64*64)
	for i := range work {
		work[i] = math.Sin(float64(i) * 1e-3)
	}
	f, err := grid.FromData("bench", grid.Float64, work, 64, 64, 64)
	if err != nil {
		b.Fatal(err)
	}
	for _, kind := range []Kind{Lorenzo, Interpolation} {
		p, err := New(kind)
		if err != nil {
			b.Fatal(err)
		}
		for _, rate := range []float64{0.01, 1} {
			b.Run(fmt.Sprintf("%s/rate=%g", kind, rate), func(b *testing.B) {
				b.SetBytes(int64(len(work) * 8))
				for b.Loop() {
					p.SampleErrors(f, rate, 1)
				}
			})
		}
	}
}
