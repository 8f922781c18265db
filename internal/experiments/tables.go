package experiments

import (
	"fmt"
	"io"
	"math"
	"strings"

	"rqm/internal/compressor"
	"rqm/internal/core"
	"rqm/internal/datagen"
	"rqm/internal/predictor"
	"rqm/internal/quality"
	"rqm/internal/stats"
)

// TableIRow describes one dataset stand-in.
type TableIRow struct {
	Name        string
	Dim         int
	Bytes       int64
	Description string
	Format      string
}

// TableI regenerates the dataset inventory (paper Table I) at the
// configured scale.
func TableI(cfg Config, w io.Writer) ([]TableIRow, error) {
	var rows []TableIRow
	tw := newTable(w)
	row(tw, "Name", "Dim", "Size", "Description", "Format")
	for _, name := range datagen.Names() {
		ds, err := datagen.Generate(name, cfg.Seed, cfg.Scale)
		if err != nil {
			return nil, err
		}
		r := TableIRow{
			Name:        name,
			Dim:         ds.Fields[0].Rank(),
			Bytes:       ds.TotalBytes(),
			Description: ds.Description,
			Format:      ds.Format,
		}
		rows = append(rows, r)
		row(tw, r.Name, fmt.Sprintf("%dD", r.Dim), fmtBytes(r.Bytes), r.Description, r.Format)
	}
	return rows, tw.Flush()
}

func fmtBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2fGB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2fMB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.2fKB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%dB", n)
}

// TableIIRow holds per-field model accuracy (all values are error rates as
// fractions; the paper prints percentages).
type TableIIRow struct {
	Dataset   string
	Field     string
	SampleErr float64
	HuffErr   float64
	// LosslessErr compares the modeled RLE stage against the measured
	// lossless backend's extra gain.
	LosslessErr float64
	HuffLLErr   float64
	PSNRErr     float64
	SSIMErr     float64 // NaN when not applicable (1D/4D fields)
}

// TableIIResult is the full accuracy table plus averages.
type TableIIResult struct {
	Rows []TableIIRow
	// Averages over applicable rows, as error-rate fractions.
	AvgSample, AvgHuff, AvgLossless, AvgHuffLL, AvgPSNR, AvgSSIM float64
}

// TableII reproduces the paper's main accuracy table: for each of the 17
// fields, the sampling error and the Eq. 20 error rates of the Huffman,
// lossless, overall-ratio, PSNR, and SSIM estimates across the error-bound
// sweep.
func TableII(cfg Config, w io.Writer) (*TableIIResult, error) {
	res := &TableIIResult{}
	tw := newTable(w)
	row(tw, "Dataset", "Field", "SampleErr", "HuffErr", "LosslessErr", "Huff+LLErr", "PSNRErr", "SSIMErr")
	for _, fc := range tableIIFields {
		f, err := cfg.field(fc.Field)
		if err != nil {
			return nil, err
		}
		r := TableIIRow{Dataset: fc.Dataset, Field: shortField(fc.Field), SSIMErr: math.NaN()}

		// Sampling accuracy: std of sampled prediction errors vs the full
		// scan, relative to the value range (Fig. 4 / "Sample Err").
		pred, err := predictor.New(fc.Kind)
		if err != nil {
			return nil, err
		}
		fullErrs := pred.SampleErrors(f, 1.0, cfg.Seed)
		_, fullVar := stats.MeanVar(fullErrs)
		prof, err := core.NewProfile(f, fc.Kind, cfg.modelOptions())
		if err != nil {
			return nil, err
		}
		lo, hi := f.ValueRange()
		rng := hi - lo
		if rng > 0 {
			r.SampleErr = math.Abs(prof.ErrStd()-math.Sqrt(fullVar)) / rng
		}

		var huffM, huffE []float64
		var llM, llE []float64
		var totM, totE []float64
		var psnrM, psnrE []float64
		var ssimM, ssimE []float64
		for _, eb := range ebsFor(f, relSweep) {
			resHuff, err := compressAt(f, fc.Kind, eb, compressor.LosslessNone)
			if err != nil {
				return nil, err
			}
			resLL, err := compressAt(f, fc.Kind, eb, compressor.LosslessFlate)
			if err != nil {
				return nil, err
			}
			est := prof.EstimateAt(eb)

			huffM = append(huffM, resHuff.Stats.BitRateHuffman)
			huffE = append(huffE, est.HuffmanBitRate)

			// Lossless stage gain: measured against the modeled Eq. 4 RLE
			// gain.
			llM = append(llM, losslessGain(resHuff, resLL))
			llE = append(llE, est.RLEGain)

			totM = append(totM, resLL.Stats.BitRate)
			totE = append(totE, est.TotalBitRate)
		}
		for _, eb := range ebsFor(f, relSweepQuality) {
			_, dec, err := trial(f, fc.Kind, eb, compressor.LosslessNone)
			if err != nil {
				return nil, err
			}
			est := prof.EstimateAt(eb)
			psnr, err := quality.PSNR(f, dec)
			if err != nil {
				return nil, err
			}
			if !math.IsInf(psnr, 0) {
				psnrM = append(psnrM, psnr)
				psnrE = append(psnrE, est.PSNR)
			}
			if fc.HasSSIM {
				ssim, err := quality.GlobalSSIM(f, dec)
				if err != nil {
					return nil, err
				}
				// Eq. 20 compares the metric values themselves (Fig. 7 uses
				// the 1−SSIM view only for plotting).
				ssimM = append(ssimM, ssim)
				ssimE = append(ssimE, est.SSIM)
			}
		}
		r.HuffErr = quality.AccuracyOfEstimate(huffM, huffE)
		r.LosslessErr = quality.AccuracyOfEstimate(llM, llE)
		r.HuffLLErr = quality.AccuracyOfEstimate(totM, totE)
		r.PSNRErr = quality.AccuracyOfEstimate(psnrM, psnrE)
		if fc.HasSSIM {
			r.SSIMErr = quality.AccuracyOfEstimate(ssimM, ssimE)
		}
		res.Rows = append(res.Rows, r)
		row(tw, r.Dataset, r.Field, pct(r.SampleErr), pct(r.HuffErr), pct(r.LosslessErr),
			pct(r.HuffLLErr), pct(r.PSNRErr), pctOrDash(r.SSIMErr))
	}
	// Averages.
	var nS int
	for _, r := range res.Rows {
		res.AvgSample += r.SampleErr
		res.AvgHuff += r.HuffErr
		res.AvgLossless += r.LosslessErr
		res.AvgHuffLL += r.HuffLLErr
		res.AvgPSNR += r.PSNRErr
		if !math.IsNaN(r.SSIMErr) {
			res.AvgSSIM += r.SSIMErr
			nS++
		}
	}
	n := float64(len(res.Rows))
	res.AvgSample /= n
	res.AvgHuff /= n
	res.AvgLossless /= n
	res.AvgHuffLL /= n
	res.AvgPSNR /= n
	if nS > 0 {
		res.AvgSSIM /= float64(nS)
	}
	row(tw, "Average", "-", pct(res.AvgSample), pct(res.AvgHuff), pct(res.AvgLossless),
		pct(res.AvgHuffLL), pct(res.AvgPSNR), pct(res.AvgSSIM))
	return res, tw.Flush()
}

func shortField(path string) string {
	if i := strings.IndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

func pct(v float64) string { return fmt.Sprintf("%.2f%%", v*100) }

func pctOrDash(v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	return pct(v)
}
