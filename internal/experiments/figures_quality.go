package experiments

import (
	"fmt"
	"io"
	"math"

	"rqm/internal/compressor"
	"rqm/internal/core"
	"rqm/internal/fft"
	"rqm/internal/predictor"
	"rqm/internal/quality"
)

// Figure6Point compares PSNR estimates under the two error distributions.
type Figure6Point struct {
	Kind         predictor.Kind
	RelEB        float64
	Measured     float64
	EstUniform   float64 // Eq. 10 only
	EstRefined   float64 // Eq. 11
	ZeroShareEst float64
}

// Figure6 reproduces the PSNR estimation plot (paper Fig. 6) on the
// Nyx-like dark-matter density field with both the linear-interpolation and
// Lorenzo predictors: at high error bounds the refined distribution (Eq. 11)
// tracks the measurement where the uniform assumption (Eq. 10) breaks.
func Figure6(cfg Config, w io.Writer) ([]Figure6Point, error) {
	f, err := cfg.field("nyx/dark_matter_density")
	if err != nil {
		return nil, err
	}
	rels := []float64{1e-4, 1e-3, 1e-2, 5e-2, 1e-1}
	var out []Figure6Point
	tw := newTable(w)
	row(tw, "predictor", "relEB", "measPSNR", "estUniform", "estRefined")
	for _, kind := range []predictor.Kind{predictor.Interpolation, predictor.Lorenzo} {
		prof, err := core.NewProfile(f, kind, cfg.modelOptions())
		if err != nil {
			return nil, err
		}
		for i, eb := range ebsFor(f, rels) {
			_, psnr, err := trialPSNR(f, kind, eb, compressor.LosslessNone)
			if err != nil {
				return nil, err
			}
			est := prof.EstimateAt(eb)
			p := Figure6Point{
				Kind: kind, RelEB: rels[i], Measured: psnr,
				EstUniform: est.PSNRUniform, EstRefined: est.PSNR,
				ZeroShareEst: est.ZeroShare,
			}
			out = append(out, p)
			row(tw, kind.String(), fmt.Sprintf("%.0e", p.RelEB),
				fmt.Sprintf("%.2f", p.Measured), fmt.Sprintf("%.2f", p.EstUniform),
				fmt.Sprintf("%.2f", p.EstRefined))
		}
	}
	return out, tw.Flush()
}

// Figure7Point compares SSIM estimates (in 1−SSIM space, as plotted).
type Figure7Point struct {
	Field       string
	RelEB       float64
	Measured    float64 // 1 − measured global SSIM
	EstUniform  float64
	EstRefined  float64
	MeasuredWin float64 // 1 − windowed SSIM, for reference
}

// Figure7 reproduces the SSIM estimation plot (paper Fig. 7) on the
// CESM-like and RTM-like fields.
func Figure7(cfg Config, w io.Writer) ([]Figure7Point, error) {
	var out []Figure7Point
	tw := newTable(w)
	row(tw, "field", "relEB", "1-SSIM(meas)", "1-SSIM(estU)", "1-SSIM(estR)", "1-SSIM(win)")
	for _, name := range []string{"cesm/TS", "rtm/snapshot_2"} {
		f, err := cfg.field(name)
		if err != nil {
			return nil, err
		}
		prof, err := core.NewProfile(f, predictor.Lorenzo, cfg.modelOptions())
		if err != nil {
			return nil, err
		}
		rels := []float64{1e-4, 1e-3, 1e-2, 1e-1}
		for i, eb := range ebsFor(f, rels) {
			_, dec, err := trial(f, predictor.Lorenzo, eb, compressor.LosslessNone)
			if err != nil {
				return nil, err
			}
			g, err := quality.GlobalSSIM(f, dec)
			if err != nil {
				return nil, err
			}
			win, err := quality.WindowedSSIM(f, dec, 8)
			if err != nil {
				return nil, err
			}
			est := prof.EstimateAt(eb)
			p := Figure7Point{
				Field: name, RelEB: rels[i],
				Measured: 1 - g, EstUniform: 1 - est.SSIMUniform, EstRefined: 1 - est.SSIM,
				MeasuredWin: 1 - win,
			}
			out = append(out, p)
			row(tw, name, fmt.Sprintf("%.0e", p.RelEB),
				fmt.Sprintf("%.3e", p.Measured), fmt.Sprintf("%.3e", p.EstUniform),
				fmt.Sprintf("%.3e", p.EstRefined), fmt.Sprintf("%.3e", p.MeasuredWin))
		}
	}
	return out, tw.Flush()
}

// Figure8Result compares measured and estimated power-spectrum degradation.
type Figure8Result struct {
	// Shells are the wavenumber shells (1..kmax; DC omitted).
	Shells []int
	// MeasuredRatio is P_dec(k)/P_orig(k) from actual decompression.
	MeasuredRatio []float64
	// EstUniform and EstRefined propagate the two error-distribution
	// variances through the spectrum model.
	EstUniform []float64
	EstRefined []float64
	// RMSUniform and RMSRefined summarize model error vs measurement.
	RMSUniform, RMSRefined float64
}

// Figure8 reproduces the FFT analysis-quality plot (paper Fig. 8) on the
// Nyx-like temperature field at a high error bound: the refined error
// distribution estimates the spectrum distortion better than uniform.
func Figure8(cfg Config, w io.Writer) (*Figure8Result, error) {
	f, err := cfg.field("nyx/temperature")
	if err != nil {
		return nil, err
	}
	prof, err := core.NewProfile(f, predictor.Lorenzo, cfg.modelOptions())
	if err != nil {
		return nil, err
	}
	// High bound, like the paper's ABS 500 on Nyx temperature.
	eb := prof.Range * 5e-2
	_, dec, err := trial(f, predictor.Lorenzo, eb, compressor.LosslessNone)
	if err != nil {
		return nil, err
	}
	orig, err := fft.PowerSpectrum(f.Data, f.Dims)
	if err != nil {
		return nil, err
	}
	decSpec, err := fft.PowerSpectrum(dec.Data, dec.Dims)
	if err != nil {
		return nil, err
	}
	measured := fft.SpectrumRatio(orig, decSpec)
	est := prof.EstimateAt(eb)
	estU := core.EstimateSpectrumRatio(orig, f.Len(), est.ErrVarUniform)
	estR := core.EstimateSpectrumRatio(orig, f.Len(), est.ErrVar)

	out := &Figure8Result{}
	tw := newTable(w)
	row(tw, "k", "measured", "estUniform", "estRefined")
	for k := 1; k < len(measured); k++ {
		out.Shells = append(out.Shells, k)
		out.MeasuredRatio = append(out.MeasuredRatio, measured[k])
		out.EstUniform = append(out.EstUniform, estU[k])
		out.EstRefined = append(out.EstRefined, estR[k])
		du := estU[k] - measured[k]
		dr := estR[k] - measured[k]
		out.RMSUniform += du * du
		out.RMSRefined += dr * dr
		row(tw, k, fmt.Sprintf("%.4f", measured[k]), fmt.Sprintf("%.4f", estU[k]), fmt.Sprintf("%.4f", estR[k]))
	}
	n := float64(len(out.Shells))
	if n > 0 {
		out.RMSUniform = math.Sqrt(out.RMSUniform / n)
		out.RMSRefined = math.Sqrt(out.RMSRefined / n)
	}
	if err := tw.Flush(); err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "RMS deviation: uniform %.4f, refined %.4f\n", out.RMSUniform, out.RMSRefined)
	return out, nil
}
