package core

import (
	"math"
	"sync"

	"rqm/internal/quantizer"
	"rqm/internal/stats"
)

// codeCounter is the pooled dense scratch histogramAt accumulates into: one
// counter per code in [-radius, radius], touched-list cleanup, so an
// EstimateAt sweep (the inverse solver calls it dozens of times per solve)
// never pays a map assignment per sampled error. counts is all-zero between
// uses; release zeroes only the touched entries.
type codeCounter struct {
	counts  []int64
	touched []int32
}

var counterPool = sync.Pool{New: func() interface{} { return &codeCounter{} }}

// denseRadiusLimit bounds the dense path: beyond it (radius > 2^20) the
// map-based histogram is used directly, so absurd radii cannot drive a huge
// scratch allocation.
const denseRadiusLimit = 1 << 20

func (cc *codeCounter) release() {
	for _, i := range cc.touched {
		cc.counts[i] = 0
	}
	cc.touched = cc.touched[:0]
	counterPool.Put(cc)
}

// Estimate is the model's prediction of compression ratio and post-hoc
// quality at one absolute error bound.
type Estimate struct {
	// AbsErrorBound is the absolute bound the estimate was computed for.
	AbsErrorBound float64
	// P0 is the share of the most frequent quantization code after the
	// correction layer (the paper's p0).
	P0 float64
	// ZeroShare is the central-bin (code 0) share.
	ZeroShare float64
	// UnpredShare is the estimated fraction of unpredictable values.
	UnpredShare float64
	// DistinctCodes counts distinct codes seen in the sampled histogram.
	DistinctCodes int
	// HuffmanBitRate is the entropy stage's modeled bits/value: Eq. 1 under
	// EntropyModelHuffman, plain Shannon entropy under EntropyModelANS. The
	// name is kept for the paper's Eq. 1 lineage and API compatibility.
	HuffmanBitRate float64
	// RLEGain is the Eq. 4 ratio of the modeled lossless stage (>= 1).
	RLEGain float64
	// PayloadBitRate is HuffmanBitRate divided by RLEGain when the lossless
	// stage is enabled.
	PayloadBitRate float64
	// OverheadBitRate covers codebook + header + side channels, bits/value.
	OverheadBitRate float64
	// TotalBitRate is the modeled total bits/value.
	TotalBitRate float64
	// Ratio is original bits per value over TotalBitRate.
	Ratio float64
	// ErrVarUniform is Eq. 10's uniform-distribution error variance.
	ErrVarUniform float64
	// ErrVar is Eq. 11's refined error variance.
	ErrVar float64
	// PSNRUniform / PSNR are Eq. 12 under the two error distributions.
	PSNRUniform float64
	PSNR        float64
	// SSIMUniform / SSIM are Eq. 15 under the two error distributions.
	SSIMUniform float64
	SSIM        float64
}

// histogramAt builds the estimated quantization-code histogram for eb from
// the sampled prediction errors, applying the Eq. 9 correction layer when
// the central share exceeds the threshold.
func (p *Profile) histogramAt(eb float64) (h *stats.CodeHistogram, unpredShare float64) {
	h = stats.NewCodeHistogram()
	radius := p.opts.Radius
	var unpred int64
	if radius <= denseRadiusLimit {
		cc := counterPool.Get().(*codeCounter)
		span := 2*int(radius) + 1
		if cap(cc.counts) < span {
			cc.counts = make([]int64, span)
		}
		cc.counts = cc.counts[:span]
		for _, e := range p.Errors {
			c := quantizer.CodeFor(e, eb)
			if c > radius || c < -radius {
				unpred++
				continue
			}
			i := c + radius
			if cc.counts[i] == 0 {
				cc.touched = append(cc.touched, i)
			}
			cc.counts[i]++
		}
		for _, i := range cc.touched {
			h.Add(i-radius, cc.counts[i])
		}
		cc.release()
	} else {
		for _, e := range p.Errors {
			c := quantizer.CodeFor(e, eb)
			if c > radius || c < -radius {
				unpred++
				continue
			}
			h.Add(c, 1)
		}
	}
	total := int64(len(p.Errors))
	if h.Total == 0 {
		return h, float64(unpred) / float64(total)
	}
	p0, _ := h.TopP()
	c2 := c2For(p.Kind)
	if !p.opts.DisableCorrection && c2 > 0 && p0 >= correctionThreshold {
		h = applyCorrection(h, c2, p0)
	}
	return h, float64(unpred) / float64(total)
}

// applyCorrection implements Eq. 9: each bin transfers
// Ntran = C2·(1−p0)·N(bin) codes evenly to its two neighbors, simulating the
// bin-crossing uncertainty of predicting from reconstructed (not original)
// values at high error bounds.
func applyCorrection(h *stats.CodeHistogram, c2, p0 float64) *stats.CodeHistogram {
	out := stats.NewCodeHistogram()
	frac := c2 * (1 - p0)
	for code, n := range h.Counts {
		tran := int64(math.Round(frac * float64(n)))
		if tran > n {
			tran = n
		}
		keep := n - tran
		left := tran / 2
		right := tran - left
		if keep > 0 {
			out.Add(code, keep)
		}
		if left > 0 {
			out.Add(code-1, left)
		}
		if right > 0 {
			out.Add(code+1, right)
		}
	}
	return out
}

// huffmanBitRate evaluates Eq. 1 on a code histogram: B = Σ p·L with
// L = −log2 p, except the most frequent code is clamped to at least 1 bit.
// Iteration is in sorted code order so the float summation (and therefore
// every model estimate) is bit-for-bit deterministic.
func huffmanBitRate(h *stats.CodeHistogram) float64 {
	if h.Total == 0 {
		return 0
	}
	_, top := h.TopP()
	var b float64
	tot := float64(h.Total)
	for _, code := range h.Codes() {
		n := h.Counts[code]
		if n == 0 {
			continue
		}
		pi := float64(n) / tot
		l := -math.Log2(pi)
		if code == top && l < 1 {
			l = 1
		}
		b += pi * l
	}
	if b < 1 {
		// A Huffman coder cannot emit fewer than 1 bit per symbol.
		b = 1
	}
	return b
}

// ansBitRate is the Eq. 1 analogue for the tANS stage: the plain Shannon
// entropy H = Σ p·(−log2 p), with no most-frequent-code clamp and no
// 1 bit/symbol floor, because an ANS coder emits fractional bits per symbol
// (down to its ~log2(table)/table framing floor, which is negligible at the
// table sizes used). Sorted-order iteration keeps the sum deterministic.
func ansBitRate(h *stats.CodeHistogram) float64 {
	if h.Total == 0 {
		return 0
	}
	var b float64
	tot := float64(h.Total)
	for _, code := range h.Codes() {
		n := h.Counts[code]
		if n == 0 {
			continue
		}
		pi := float64(n) / tot
		b += pi * -math.Log2(pi)
	}
	return b
}

// entropyBitRate dispatches Eq. 1 (or its ANS analogue) per the configured
// entropy model.
func (p *Profile) entropyBitRate(h *stats.CodeHistogram) float64 {
	if p.opts.Entropy == EntropyModelANS {
		return ansBitRate(h)
	}
	return huffmanBitRate(h)
}

// rleGain evaluates Eq. 4: Rrle = 1/(C1(1−p0)·P0 + (1−P0)), where P0 is the
// footprint share of the zero code inside the entropy-coded payload and p0
// the share of zero codes by count. zeroBitsFloor is the least the entropy
// stage spends on one zero code: 1 bit under Huffman — the redundancy a
// sparse field leaves for the lossless stage to remove — and 0 under tANS,
// whose fractional-bit zeros leave it next to nothing. Gains below 1 are
// clamped (the stage is skipped by the model when it would expand).
func rleGain(p0, bitRate, zeroBitsFloor float64) float64 {
	if p0 <= 0 || bitRate <= 0 {
		return 1
	}
	l0 := math.Max(-math.Log2(p0), zeroBitsFloor)
	footprint := p0 * l0 / bitRate
	if footprint > 1 {
		footprint = 1
	}
	den := rleC1Bits*(1-p0)*footprint + (1 - footprint)
	if den <= 0 {
		return 1
	}
	g := 1 / den
	if g < 1 {
		return 1
	}
	return g
}

// EstimateAt produces the full ratio-quality estimate for an absolute error
// bound. Cost is O(len(samples)).
func (p *Profile) EstimateAt(absEB float64) Estimate {
	est := Estimate{AbsErrorBound: absEB}
	if !(absEB > 0) {
		return est
	}
	h, unpredShare := p.histogramAt(absEB)
	est.UnpredShare = unpredShare
	est.DistinctCodes = len(h.Counts)
	if h.Total > 0 {
		p0, _ := h.TopP()
		est.P0 = p0
		est.ZeroShare = h.P(0)
	}
	est.HuffmanBitRate = p.entropyBitRate(h)
	// Reconstruction feedback keeps a small fraction of imperfectly
	// predicted codes non-zero even when original-value sampling maps them
	// all to the central bin, which would otherwise drive Eq. 4 into its
	// p0→1 pole. Sparse regions predicted *exactly* (the paper's §III-C
	// sparsity) reconstruct exactly and are exempt from the discount.
	zeroForRLE := est.ZeroShare
	pz := p.exactZeroFrac
	if zcap := pz + 0.98*(1-pz); zeroForRLE > zcap {
		zeroForRLE = zcap
	}
	zeroBitsFloor := 1.0
	if p.opts.Entropy == EntropyModelANS {
		zeroBitsFloor = 0
	}
	est.RLEGain = rleGain(zeroForRLE, est.HuffmanBitRate, zeroBitsFloor)
	est.PayloadBitRate = est.HuffmanBitRate
	if p.opts.UseLossless {
		est.PayloadBitRate = est.HuffmanBitRate / est.RLEGain
	}

	// Overheads: serialized codebook (≈2 bytes per distinct code), fixed
	// header, unpredictable raw values, predictor side channel.
	n := float64(p.N)
	codebookBits := float64(est.DistinctCodes) * 16
	const headerBits = headerBytes * 8
	est.OverheadBitRate = (codebookBits+headerBits)/n + est.UnpredShare*64 + p.AuxBitsPerValue
	est.TotalBitRate = est.PayloadBitRate*(1-est.UnpredShare) + est.OverheadBitRate
	if est.TotalBitRate > 0 {
		est.Ratio = float64(p.OrigBits) / est.TotalBitRate
	}

	// Error distribution: Eq. 10 (uniform) and Eq. 11 (refined).
	est.ErrVarUniform = absEB * absEB / 3
	share, centralVar := p.centralBinStats(absEB)
	est.ErrVar = (1-share)*est.ErrVarUniform + share*centralVar
	// Quality models.
	est.PSNRUniform = psnrFromVariance(p.Range, est.ErrVarUniform)
	est.PSNR = psnrFromVariance(p.Range, est.ErrVar)
	est.SSIMUniform = ssimFromVariance(p.Range, p.DataVar, est.ErrVarUniform)
	est.SSIM = ssimFromVariance(p.Range, p.DataVar, est.ErrVar)
	return est
}

// psnrFromVariance is Eq. 12.
func psnrFromVariance(valueRange, errVar float64) float64 {
	if errVar <= 0 {
		return math.Inf(1)
	}
	if valueRange <= 0 {
		return 0
	}
	return 20*math.Log10(valueRange) - 10*math.Log10(errVar)
}

// ssimFromVariance is Eq. 15 with the standard C3 = (0.03·L)² stabilizer.
func ssimFromVariance(valueRange, dataVar, errVar float64) float64 {
	c3 := (0.03 * valueRange) * (0.03 * valueRange)
	return (2*dataVar + c3) / (2*dataVar + c3 + errVar)
}

// Curve evaluates the model across a list of absolute error bounds.
func (p *Profile) Curve(absEBs []float64) []Estimate {
	out := make([]Estimate, len(absEBs))
	for i, eb := range absEBs {
		out[i] = p.EstimateAt(eb)
	}
	return out
}

// EstimateSpectrumRatio predicts the per-shell power-spectrum ratio
// P'(k)/P(k) of decompressed over original data, propagating a white
// compression-error distribution with variance errVar through the
// (unnormalized) DFT: each mode gains n·errVar expected power.
func EstimateSpectrumRatio(origSpectrum []float64, n int, errVar float64) []float64 {
	out := make([]float64, len(origSpectrum))
	add := float64(n) * errVar
	for i, pk := range origSpectrum {
		if pk <= 0 {
			out[i] = 1
			continue
		}
		out[i] = (pk + add) / pk
	}
	return out
}
