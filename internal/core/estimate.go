package core

import (
	"math"
	"sync"

	"rqm/internal/quantizer"
)

// codeRun is one bin of the estimated quantization-code histogram.
type codeRun struct {
	code int32
	n    int64
}

// runScratch is the pooled scratch one EstimateAt builds its histogram in:
// the runs walked off the sorted errors and, when Eq. 9 engages, the
// corrected histogram merged from them. EstimateAt is its only owner from Get
// to Put; an Estimate holds scalars only, so nothing refers to it afterwards.
type runScratch struct{ runs, corrected []codeRun }

var runPool = sync.Pool{New: func() interface{} { return new(runScratch) }}

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

// histogramAt builds the estimated quantization-code histogram for eb,
// ascending by code, applying the Eq. 9 correction layer when the central
// share exceeds the threshold. quantizer.CodeFor is monotone in the error, so
// over the sorted errors equal codes are contiguous: each run's end is found
// by galloping with CodeFor itself as the predicate, which makes bin
// membership the per-sample loop's exactly, and runs outside the quantizer
// radius are the unpredictable values.
func (p *Profile) histogramAt(eb float64, sc *runScratch) (h []codeRun, total int64, unpredShare float64) {
	s := p.sorted
	// The one break in monotonicity: when 2·eb overflows, +Inf/+Inf is NaN
	// and codes like the NaNs sorted first. Such a tail is out of radius.
	for len(s) > 0 && s[len(s)-1] > 0 && quantizer.CodeFor(s[len(s)-1], eb) < 0 {
		s = s[:len(s)-1]
	}
	h = sc.runs[:0]
	for i, c := 0, quantizer.CodeFor(p.sorted[0], eb); i < len(s); { // s may be empty, p.sorted never is
		// Gallop while the code holds, then bisect the last stride; next is
		// the code of s[hi], which opens the following run.
		lo, step, hi, next := i, 1, len(s), c
		for lo+step < hi {
			if k := quantizer.CodeFor(s[lo+step], eb); k != c {
				hi, next = lo+step, k
			} else {
				lo, step = lo+step, 2*step
			}
		}
		for lo+1 < hi {
			mid := int(uint(lo+hi) >> 1)
			if k := quantizer.CodeFor(s[mid], eb); k != c {
				hi, next = mid, k
			} else {
				lo = mid
			}
		}
		if c >= -quantizer.DefaultRadius && c <= quantizer.DefaultRadius {
			h = append(h, codeRun{c, int64(hi - i)})
			total += int64(hi - i)
		}
		i, c = hi, next
	}
	sc.runs = h
	unpredShare = float64(int64(len(p.sorted))-total) / float64(len(p.sorted))
	if c2 := c2For(p.Kind); total > 0 && c2 > 0 && !p.opts.DisableCorrection {
		top, _ := topAndZero(h)
		if p0 := float64(top.n) / float64(total); p0 >= correctionThreshold {
			sc.corrected = applyCorrection(sc.corrected[:0], h, c2*(1-p0))
			h = sc.corrected
		}
	}
	return h, total, unpredShare
}

// topAndZero scans a histogram for its most frequent bin (the smallest code
// among equals) and for the count of code 0.
func topAndZero(h []codeRun) (top codeRun, zero int64) {
	for _, r := range h {
		if r.n > top.n {
			top = r
		}
		if r.code == 0 {
			zero = r.n
		}
	}
	return top, zero
}

// applyCorrection implements Eq. 9: each bin transfers
// Ntran = C2·(1−p0)·N(bin) codes evenly to its two neighbors, simulating the
// bin-crossing uncertainty of predicting from reconstructed (not original)
// values at high error bounds. src ascends by code, so the three shifted
// streams (left shares at code−1, kept counts, right shares at code+1) merge
// into dst in one pass: only the previous bin's right share can still be
// pending when the next bin's left share arrives.
func applyCorrection(dst, src []codeRun, frac float64) []codeRun {
	add := func(r codeRun) {
		if k := len(dst) - 1; k >= 0 && dst[k].code == r.code {
			dst[k].n += r.n
		} else if r.n > 0 {
			dst = append(dst, r)
		}
	}
	var right codeRun
	for _, r := range src {
		tran := transfer(r.n, frac)
		left := codeRun{r.code - 1, tran / 2}
		if left.code < right.code {
			add(left)
			add(right)
		} else {
			add(right)
			add(left)
		}
		add(codeRun{r.code, r.n - tran})
		right = codeRun{r.code + 1, tran - tran/2}
	}
	add(right)
	return dst
}

// transfer is Eq. 9's Ntran for one bin of n codes.
func transfer(n int64, frac float64) int64 {
	return min(int64(math.Round(frac*float64(n))), n)
}

// entropyBitRate evaluates Eq. 1 on a code histogram, B = Σ p·L with
// L = −log2 p, per the configured entropy model. Under Huffman the most
// frequent code is clamped to at least 1 bit and so is the sum: a Huffman
// coder cannot emit fewer than 1 bit per symbol. Under tANS it is the plain
// Shannon entropy: an ANS coder emits fractional bits per symbol, down to a
// framing floor that is negligible at the table sizes used. The sum runs in
// code order, so every model estimate is bit-for-bit deterministic.
func (p *Profile) entropyBitRate(h []codeRun, total int64, top int32) float64 {
	huffman := p.opts.Entropy != EntropyModelANS
	var b float64
	var memo [32]float64 // p·L by count: the tail's bins share counts 1, 2, 3…
	tot := float64(total)
	for _, r := range h {
		shared := r.n < int64(len(memo)) && r.code != top
		if shared && memo[r.n] != 0 {
			b += memo[r.n]
			continue
		}
		pi := float64(r.n) / tot
		l := -math.Log2(pi)
		if huffman && r.code == top && l < 1 {
			l = 1
		}
		b += pi * l
		if shared {
			memo[r.n] = pi * l
		}
	}
	if huffman && total > 0 && b < 1 {
		b = 1
	}
	return b
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
// bound. Cost is O(D·log(n/D)) for n samples falling into D occupied bins.
func (p *Profile) EstimateAt(absEB float64) Estimate {
	est := Estimate{AbsErrorBound: absEB}
	if !(absEB > 0) {
		return est
	}
	sc := runPool.Get().(*runScratch)
	h, total, unpredShare := p.histogramAt(absEB, sc)
	est.UnpredShare = unpredShare
	est.DistinctCodes = len(h)
	top, zero := topAndZero(h)
	if total > 0 {
		est.P0 = float64(top.n) / float64(total)
		est.ZeroShare = float64(zero) / float64(total)
	}
	est.HuffmanBitRate = p.entropyBitRate(h, total, top.code)
	runPool.Put(sc)
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

	est.ErrVarUniform, est.ErrVar = p.errVars(absEB)
	// Quality models.
	est.PSNRUniform = psnrFromVariance(p.Range, est.ErrVarUniform)
	est.PSNR = psnrFromVariance(p.Range, est.ErrVar)
	est.SSIMUniform = ssimFromVariance(p.Range, p.DataVar, est.ErrVarUniform)
	est.SSIM = ssimFromVariance(p.Range, p.DataVar, est.ErrVar)
	return est
}

// errVars is the error distribution: Eq. 10's uniform variance and Eq. 11's
// refinement of it by the central bin.
func (p *Profile) errVars(eb float64) (uniform, refined float64) {
	uniform = eb * eb / 3
	share, centralVar := p.centralBinStats(eb)
	return uniform, (1-share)*uniform + share*centralVar
}

// psnrAt is EstimateAt(eb).PSNR without the histogram, which PSNR never
// reads: the bound reaches it through centralBinStats alone.
func (p *Profile) psnrAt(eb float64) float64 {
	if !(eb > 0) {
		return 0
	}
	_, errVar := p.errVars(eb)
	return psnrFromVariance(p.Range, errVar)
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
