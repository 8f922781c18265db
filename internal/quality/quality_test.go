package quality

import (
	"math"
	"testing"

	"rqm/internal/grid"
	"rqm/internal/stats"
)

func mkField(t *testing.T, vals []float64, dims ...int) *grid.Field {
	t.Helper()
	f, err := grid.FromData("f", grid.Float64, vals, dims...)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestMSEAndPSNR(t *testing.T) {
	a := mkField(t, []float64{0, 1, 2, 3}, 4)
	b := mkField(t, []float64{0.1, 1.1, 1.9, 3}, 4)
	mse, err := MSE(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := (0.01 + 0.01 + 0.01 + 0) / 4
	if math.Abs(mse-want) > 1e-12 {
		t.Fatalf("MSE = %v, want %v", mse, want)
	}
	psnr, err := PSNR(a, b)
	if err != nil {
		t.Fatal(err)
	}
	wantPSNR := 20*math.Log10(3) - 10*math.Log10(want)
	if math.Abs(psnr-wantPSNR) > 1e-9 {
		t.Fatalf("PSNR = %v, want %v", psnr, wantPSNR)
	}
}

func TestPSNRIdenticalInf(t *testing.T) {
	a := mkField(t, []float64{1, 2, 3}, 3)
	psnr, err := PSNR(a, a.Clone())
	if err != nil || !math.IsInf(psnr, 1) {
		t.Fatalf("PSNR identical = %v, %v", psnr, err)
	}
}

// TestPSNRConstantReference pins the constant-reference fallback: a zero
// value range must not collapse every distortion to 0 dB. The peak falls
// back to the field magnitude (then 1.0 for all-zero references), so a tiny
// error scores far above a huge one.
func TestPSNRConstantReference(t *testing.T) {
	const level = 1e6
	ref := mkField(t, []float64{level, level, level, level}, 4)

	// Offsets of 0.25 are exactly representable next to 1e6, so the MSE
	// below is exact.
	tiny := mkField(t, []float64{level + 0.25, level, level - 0.25, level}, 4)
	huge := mkField(t, []float64{0, 2 * level, 0, 2 * level}, 4)

	psnrTiny, err := PSNR(ref, tiny)
	if err != nil {
		t.Fatal(err)
	}
	psnrHuge, err := PSNR(ref, huge)
	if err != nil {
		t.Fatal(err)
	}
	// Peak = max(|lo|, |hi|) = 1e6; MSE(tiny) = 0.03125, MSE(huge) = 1e12.
	wantTiny := 20*math.Log10(level) - 10*math.Log10(0.03125)
	if math.Abs(psnrTiny-wantTiny) > 1e-9 {
		t.Fatalf("constant-ref tiny-error PSNR = %v, want %v", psnrTiny, wantTiny)
	}
	wantHuge := 20*math.Log10(level) - 10*math.Log10(1e12)
	if math.Abs(psnrHuge-wantHuge) > 1e-9 {
		t.Fatalf("constant-ref huge-error PSNR = %v, want %v", psnrHuge, wantHuge)
	}
	if psnrTiny <= psnrHuge {
		t.Fatalf("tiny error %v dB not above huge error %v dB", psnrTiny, psnrHuge)
	}

	// All-zero reference: peak falls back to 1.0.
	zero := mkField(t, []float64{0, 0, 0}, 3)
	off := mkField(t, []float64{1e-3, 0, -1e-3}, 3)
	psnrZero, err := PSNR(zero, off)
	if err != nil {
		t.Fatal(err)
	}
	wantZero := -10 * math.Log10(2e-6/3)
	if math.Abs(psnrZero-wantZero) > 1e-9 {
		t.Fatalf("zero-ref PSNR = %v, want %v", psnrZero, wantZero)
	}

	// Identical constant fields still score +Inf.
	if psnr, err := PSNR(ref, ref.Clone()); err != nil || !math.IsInf(psnr, 1) {
		t.Fatalf("identical constant PSNR = %v, %v", psnr, err)
	}
}

func TestMSESizeMismatch(t *testing.T) {
	a := mkField(t, []float64{1, 2, 3}, 3)
	b := mkField(t, []float64{1, 2}, 2)
	if _, err := MSE(a, b); err == nil {
		t.Fatal("size mismatch accepted")
	}
}

func TestGlobalSSIMIdentical(t *testing.T) {
	a := mkField(t, []float64{1, 5, 2, 8, 3, 9}, 6)
	s, err := GlobalSSIM(a, a.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s-1) > 1e-12 {
		t.Fatalf("SSIM identical = %v", s)
	}
}

func TestGlobalSSIMDecreasesWithNoise(t *testing.T) {
	n := 4096
	a := grid.MustNew("a", grid.Float64, n)
	rng := stats.NewXorShift64(1)
	for i := range a.Data {
		a.Data[i] = math.Sin(float64(i) * 0.01)
	}
	prev := 1.0
	for _, sigma := range []float64{0.01, 0.05, 0.2} {
		b := a.Clone()
		r2 := stats.NewXorShift64(2)
		for i := range b.Data {
			b.Data[i] += sigma * r2.NormFloat64()
		}
		s, err := GlobalSSIM(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if s >= prev {
			t.Fatalf("SSIM did not decrease with noise %v: %v >= %v", sigma, s, prev)
		}
		prev = s
	}
	_ = rng
}

func TestWindowedSSIMBounds(t *testing.T) {
	a := grid.MustNew("a", grid.Float64, 32, 32)
	rng := stats.NewXorShift64(3)
	for i := range a.Data {
		a.Data[i] = rng.Float64()
	}
	b := a.Clone()
	for i := range b.Data {
		b.Data[i] += 0.05 * rng.NormFloat64()
	}
	s, err := WindowedSSIM(a, b, 8)
	if err != nil {
		t.Fatal(err)
	}
	if s <= 0 || s > 1 {
		t.Fatalf("windowed SSIM = %v", s)
	}
	sIdent, _ := WindowedSSIM(a, a.Clone(), 8)
	if math.Abs(sIdent-1) > 1e-12 {
		t.Fatalf("windowed SSIM identical = %v", sIdent)
	}

	// Pinned bit for bit: the window walk visits every cell once, in the
	// same order, whatever the rank and however the edge windows clip.
	pinned := []struct {
		dims []int
		edge int
		want uint64
	}{
		{[]int{100}, 8, 0x3fef9fd57a8a7201},
		{[]int{19, 13}, 8, 0x3fefcc12a5f6905d},
		{[]int{9, 10, 11}, 4, 0x3fefee4bfcb1a4d8},
		{[]int{3, 5, 4, 6}, 3, 0x3fefe181c5dc7ee6},
	}
	for _, p := range pinned {
		x := grid.MustNew("x", grid.Float64, p.dims...)
		rng := stats.NewXorShift64(uint64(x.Len()))
		for i := range x.Data {
			x.Data[i] = math.Sin(float64(i)*0.1) + 0.1*rng.Float64()
		}
		y := x.Clone()
		for i := range y.Data {
			y.Data[i] += 0.02 * rng.NormFloat64()
		}
		s, err := WindowedSSIM(x, y, p.edge)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(s) != p.want {
			t.Errorf("WindowedSSIM %v edge %d = %v (%#x), want %#x", p.dims, p.edge, s, math.Float64bits(s), p.want)
		}
	}
}

func TestAccuracyOfEstimate(t *testing.T) {
	// Perfect estimates → error rate 0.
	if e := AccuracyOfEstimate([]float64{1, 2, 3}, []float64{1, 2, 3}); e > 1e-12 {
		t.Fatalf("perfect estimate error = %v", e)
	}
	// A constant multiplicative bias has zero STD of ratios → error 0 (the
	// paper's metric measures consistency, not bias).
	if e := AccuracyOfEstimate([]float64{2, 4, 6}, []float64{1, 2, 3}); e > 1e-12 {
		t.Fatalf("constant-bias error = %v", e)
	}
	// Scattered ratios → positive error below 1.
	e := AccuracyOfEstimate([]float64{1, 2, 3, 4}, []float64{1.2, 1.7, 3.4, 3.7})
	if e <= 0 || e >= 1 {
		t.Fatalf("scattered error = %v", e)
	}
	// Zero estimates are skipped.
	if e := AccuracyOfEstimate([]float64{1, 2}, []float64{0, 2}); e != 0 {
		t.Fatalf("zero-handling error = %v", e)
	}
}
