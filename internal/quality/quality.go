// Package quality computes the measured (ground-truth) side of the paper's
// post-hoc analysis metrics: MSE/PSNR and SSIM (global and windowed). The
// ratio-quality model's estimates are validated against these; power-spectrum
// distortion is internal/fft's SpectrumRatio.
package quality

import (
	"errors"
	"math"

	"rqm/internal/grid"
	"rqm/internal/stats"
)

// MSE returns the mean squared error between two equally-sized fields.
func MSE(a, b *grid.Field) (float64, error) {
	if a.Len() != b.Len() {
		return 0, errors.New("quality: field sizes differ")
	}
	var s float64
	for i := range a.Data {
		d := a.Data[i] - b.Data[i]
		s += d * d
	}
	return s / float64(a.Len()), nil
}

// PSNR returns the peak signal-to-noise ratio in dB, using the value range
// of the reference field a as the peak (the convention used by SZ and the
// paper). Identical fields return +Inf. A constant reference has zero range,
// so the peak falls back to max(|lo|, |hi|) — the field's magnitude — and to
// 1.0 when the reference is all zeros, keeping the score sensitive to the
// distortion instead of collapsing every comparison to 0 dB.
func PSNR(a, b *grid.Field) (float64, error) {
	mse, err := MSE(a, b)
	if err != nil {
		return 0, err
	}
	if mse == 0 {
		return math.Inf(1), nil
	}
	lo, hi := a.ValueRange()
	peak := hi - lo
	if peak == 0 {
		peak = math.Max(math.Abs(lo), math.Abs(hi))
		if peak == 0 {
			peak = 1
		}
	}
	return 20*math.Log10(peak) - 10*math.Log10(mse), nil
}

// ssimConstants returns the standard C1=(K1·L)², C2=(K2·L)² stabilizers for
// dynamic range L.
func ssimConstants(l float64) (c1, c2 float64) {
	return (0.01 * l) * (0.01 * l), (0.03 * l) * (0.03 * l)
}

// GlobalSSIM computes the structural similarity index over the whole field
// (single window). This is the quantity the paper's Eq. 15–19 derivation
// models.
func GlobalSSIM(a, b *grid.Field) (float64, error) {
	if a.Len() != b.Len() {
		return 0, errors.New("quality: field sizes differ")
	}
	lo, hi := a.ValueRange()
	c1, c2 := ssimConstants(hi - lo)
	return ssimOn(a.Data, b.Data, c1, c2), nil
}

func ssimOn(x, y []float64, c1, c2 float64) float64 {
	mx, vx := stats.MeanVar(x)
	my, vy := stats.MeanVar(y)
	var cov float64
	for i := range x {
		cov += (x[i] - mx) * (y[i] - my)
	}
	cov /= float64(len(x))
	num := (2*mx*my + c1) * (2*cov + c2)
	den := (mx*mx + my*my + c1) * (vx + vy + c2)
	if den == 0 {
		return 1
	}
	return num / den
}

// WindowedSSIM computes mean SSIM over non-overlapping windows of the given
// edge (8 is the common choice). Windows are axis-aligned blocks; partial
// edge blocks are included. Constants use the global range of a.
func WindowedSSIM(a, b *grid.Field, edge int) (float64, error) {
	if a.Len() != b.Len() {
		return 0, errors.New("quality: field sizes differ")
	}
	if edge <= 0 {
		edge = 8
	}
	lo, hi := a.ValueRange()
	c1, c2 := ssimConstants(hi - lo)
	blocks := grid.Blocks(a.Dims, edge)
	st := a.Strides()
	var sum float64
	var bx, by []float64
	for _, blk := range blocks {
		bx = bx[:0]
		by = by[:0]
		w := blk.Cells(st)
		for w.Next() {
			bx = append(bx, a.Data[w.Flat])
			by = append(by, b.Data[w.Flat])
		}
		sum += ssimOn(bx, by, c1, c2)
	}
	return sum / float64(len(blocks)), nil
}

// AccuracyOfEstimate implements the paper's Eq. 20 error metric between
// measured values R and estimated values R': E = 1 − (1 + STD(R/R' − 1))⁻¹,
// returned as the *error rate* (the paper reports both; accuracy = 1 − E).
// Pairs where the estimate is zero are skipped.
func AccuracyOfEstimate(measured, estimated []float64) float64 {
	var ratios []float64
	n := len(measured)
	if len(estimated) < n {
		n = len(estimated)
	}
	for i := 0; i < n; i++ {
		if estimated[i] == 0 {
			continue
		}
		ratios = append(ratios, measured[i]/estimated[i]-1)
	}
	if len(ratios) == 0 {
		return 0
	}
	mean, v := stats.MeanVar(ratios)
	_ = mean
	std := math.Sqrt(v)
	return 1 - 1/(1+std)
}
