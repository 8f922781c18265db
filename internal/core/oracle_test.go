package core

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"rqm/internal/quantizer"
	"rqm/internal/stats"
)

// The oracle: the per-sample histogram, the map-based correction layer, the
// two bit-rate sums, EstimateAt's body and the bisection as they stood before
// the sorted-run walk replaced them, moved here verbatim (receivers, the
// h.Codes() call and the histogram's unexported names aside). It indexes its
// own copy of the samples the old way — |errors| sorted on their own,
// stats.Quantile's copy-and-sort — so the merge-derived sortedAbs/prefixSq
// are checked too, not reused.

type oracle struct {
	*Profile
	sortedAbs     []float64
	prefixSq      []float64
	exactZeroFrac float64
}

func newOracle(p *Profile) *oracle {
	o := &oracle{Profile: p}
	o.sortedAbs = make([]float64, len(p.Errors))
	for i, e := range p.Errors {
		o.sortedAbs[i] = math.Abs(e)
	}
	sort.Float64s(o.sortedAbs)
	o.prefixSq = make([]float64, len(o.sortedAbs)+1)
	for i, a := range o.sortedAbs {
		o.prefixSq[i+1] = o.prefixSq[i] + a*a
	}
	zeroTol := p.Range * 1e-13
	nz := sort.SearchFloat64s(o.sortedAbs, math.Nextafter(zeroTol, math.Inf(1)))
	o.exactZeroFrac = float64(nz) / float64(len(o.sortedAbs))
	return o
}

func (p *oracle) centralBinStats(eb float64) (share, variance float64) {
	n := len(p.sortedAbs)
	k := sort.SearchFloat64s(p.sortedAbs, math.Nextafter(eb, math.Inf(1)))
	if k == 0 {
		return 0, 0
	}
	return float64(k) / float64(n), p.prefixSq[k] / float64(k)
}

func (p *oracle) quantileAbs(q float64) float64 {
	return stats.Quantile(p.sortedAbs, q)
}

type codeCounter struct {
	counts  []int64
	touched []int32
}

var counterPool = sync.Pool{New: func() interface{} { return &codeCounter{} }}

func (cc *codeCounter) release() {
	for _, i := range cc.touched {
		cc.counts[i] = 0
	}
	cc.touched = cc.touched[:0]
	counterPool.Put(cc)
}

// codeHistogram is the frequency table over signed quantization codes that
// the estimate counted before the sorted-run walk: a map from code to count
// plus the total.
type codeHistogram struct {
	counts map[int32]int64
	total  int64
}

func newCodeHistogram() *codeHistogram {
	return &codeHistogram{counts: make(map[int32]int64)}
}

func (h *codeHistogram) add(code int32, n int64) {
	h.counts[code] += n
	h.total += n
}

// p is the empirical probability of code.
func (h *codeHistogram) p(code int32) float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.counts[code]) / float64(h.total)
}

// topP is the probability of the most frequent code (the paper's p0) and
// that code, the smallest code on a tie.
func (h *codeHistogram) topP() (p float64, code int32) {
	if h.total == 0 {
		return 0, 0
	}
	var best int64 = -1
	for c, n := range h.counts {
		if n > best || (n == best && c < code) {
			best, code = n, c
		}
	}
	return float64(best) / float64(h.total), code
}

func (p *oracle) histogramAt(eb float64) (h *codeHistogram, unpredShare float64) {
	h = newCodeHistogram()
	const radius = quantizer.DefaultRadius
	var unpred int64
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
		h.add(i-radius, cc.counts[i])
	}
	cc.release()
	total := int64(len(p.Errors))
	if h.total == 0 {
		return h, float64(unpred) / float64(total)
	}
	p0, _ := h.topP()
	c2 := c2For(p.Kind)
	if !p.opts.DisableCorrection && c2 > 0 && p0 >= correctionThreshold {
		h = oracleApplyCorrection(h, c2, p0)
	}
	return h, float64(unpred) / float64(total)
}

func oracleApplyCorrection(h *codeHistogram, c2, p0 float64) *codeHistogram {
	out := newCodeHistogram()
	frac := c2 * (1 - p0)
	for code, n := range h.counts {
		tran := int64(math.Round(frac * float64(n)))
		if tran > n {
			tran = n
		}
		keep := n - tran
		left := tran / 2
		right := tran - left
		if keep > 0 {
			out.add(code, keep)
		}
		if left > 0 {
			out.add(code-1, left)
		}
		if right > 0 {
			out.add(code+1, right)
		}
	}
	return out
}

// sortedCodes is what the deleted CodeHistogram.Codes returned.
func sortedCodes(h *codeHistogram) []int32 {
	cs := make([]int32, 0, len(h.counts))
	for c := range h.counts {
		cs = append(cs, c)
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i] < cs[j] })
	return cs
}

func huffmanBitRate(h *codeHistogram) float64 {
	if h.total == 0 {
		return 0
	}
	_, top := h.topP()
	var b float64
	tot := float64(h.total)
	for _, code := range sortedCodes(h) {
		n := h.counts[code]
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

func ansBitRate(h *codeHistogram) float64 {
	if h.total == 0 {
		return 0
	}
	var b float64
	tot := float64(h.total)
	for _, code := range sortedCodes(h) {
		n := h.counts[code]
		if n == 0 {
			continue
		}
		pi := float64(n) / tot
		b += pi * -math.Log2(pi)
	}
	return b
}

func (p *oracle) entropyBitRate(h *codeHistogram) float64 {
	if p.opts.Entropy == EntropyModelANS {
		return ansBitRate(h)
	}
	return huffmanBitRate(h)
}

func (p *oracle) EstimateAt(absEB float64) Estimate {
	est := Estimate{AbsErrorBound: absEB}
	if !(absEB > 0) {
		return est
	}
	h, unpredShare := p.histogramAt(absEB)
	est.UnpredShare = unpredShare
	est.DistinctCodes = len(h.counts)
	if h.total > 0 {
		p0, _ := h.topP()
		est.P0 = p0
		est.ZeroShare = h.p(0)
	}
	est.HuffmanBitRate = p.entropyBitRate(h)
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

	n := float64(p.N)
	codebookBits := float64(est.DistinctCodes) * 16
	const headerBits = headerBytes * 8
	est.OverheadBitRate = (codebookBits+headerBits)/n + est.UnpredShare*64 + p.AuxBitsPerValue
	est.TotalBitRate = est.PayloadBitRate*(1-est.UnpredShare) + est.OverheadBitRate
	if est.TotalBitRate > 0 {
		est.Ratio = float64(p.OrigBits) / est.TotalBitRate
	}

	est.ErrVarUniform = absEB * absEB / 3
	share, centralVar := p.centralBinStats(absEB)
	est.ErrVar = (1-share)*est.ErrVarUniform + share*centralVar
	est.PSNRUniform = psnrFromVariance(p.Range, est.ErrVarUniform)
	est.PSNR = psnrFromVariance(p.Range, est.ErrVar)
	est.SSIMUniform = ssimFromVariance(p.Range, p.DataVar, est.ErrVarUniform)
	est.SSIM = ssimFromVariance(p.Range, p.DataVar, est.ErrVar)
	return est
}

func (p *oracle) BaseErrorBound() float64 {
	eb := p.Range * 1e-7
	if eb <= 0 {
		eb = 1e-12
	}
	if q := p.quantileAbs(0.995); q > 0 {
		if minEB := q / (1.8 * quantizer.DefaultRadius); eb < minEB {
			eb = minEB
		}
	}
	return eb
}

func (p *oracle) ErrorBoundForBitRate(target float64) (float64, error) {
	if !(target > 0) {
		return 0, fmt.Errorf("core: target bit-rate must be positive, got %v", target)
	}
	const tol = 0.25 // bits
	base := p.BaseErrorBound()
	baseB := p.EstimateAt(base).HuffmanBitRate
	e := math.Exp2(baseB-target) * base
	if est := p.EstimateAt(e); math.Abs(est.HuffmanBitRate-target) <= tol &&
		est.ZeroShare <= anchorP0[0] {
		return e, nil
	}
	if eAnchor, ok := p.anchorInterpolate(target); ok {
		if math.Abs(p.EstimateAt(eAnchor).HuffmanBitRate-target) <= tol {
			return eAnchor, nil
		}
	}
	return p.solveMonotone(target, func(e Estimate) float64 { return e.HuffmanBitRate }, math.Inf(1))
}

func (p *oracle) anchorInterpolate(target float64) (float64, bool) {
	type anchor struct{ b, loge float64 }
	var anchors []anchor
	for _, q := range anchorP0 {
		eb := p.quantileAbs(q)
		if eb <= 0 {
			continue
		}
		anchors = append(anchors, anchor{p.EstimateAt(eb).HuffmanBitRate, math.Log(eb)})
	}
	if len(anchors) == 0 {
		return 0, false
	}
	sort.Slice(anchors, func(i, j int) bool { return anchors[i].b > anchors[j].b })
	uniq := anchors[:1]
	for _, a := range anchors[1:] {
		if a.b < uniq[len(uniq)-1].b-1e-12 {
			uniq = append(uniq, a)
		}
	}
	anchors = uniq
	if target > anchors[0].b || len(anchors) == 1 {
		return 0, false
	}
	last := anchors[len(anchors)-1]
	if target <= last.b {
		prev := anchors[len(anchors)-2]
		slope := (last.loge - prev.loge) / (prev.b - last.b)
		return math.Exp(last.loge + slope*(last.b-target)), true
	}
	for i := 0; i+1 < len(anchors); i++ {
		hi, lo := anchors[i], anchors[i+1]
		if target <= hi.b && target >= lo.b {
			t := (hi.b - target) / (hi.b - lo.b)
			return math.Exp(hi.loge + t*(lo.loge-hi.loge)), true
		}
	}
	return 0, false
}

func (p *oracle) ErrorBoundForRatio(targetRatio float64) (float64, error) {
	if !(targetRatio > 1) {
		return 0, fmt.Errorf("core: target ratio must exceed 1, got %v", targetRatio)
	}
	targetBits := float64(p.OrigBits) / targetRatio
	return p.solveMonotone(targetBits, func(e Estimate) float64 { return e.TotalBitRate }, math.Inf(1))
}

func (p *oracle) ErrorBoundForPSNR(target float64) (float64, error) {
	if math.IsNaN(target) {
		return 0, errors.New("core: target PSNR is NaN")
	}
	return p.solveMonotone(target, func(e Estimate) float64 { return e.PSNR }, p.Range*math.Pow(10, -target/20))
}

func (p *oracle) solveMonotone(target float64, metric func(Estimate) float64, past float64) (float64, error) {
	lo := p.Range * 1e-12
	if q := p.quantileAbs(1.0); q > 0 {
		if minEB := q / (1.8 * quantizer.DefaultRadius); lo < minEB {
			lo = minEB
		}
	}
	hi := p.Range
	if hi <= 0 {
		return 0, errors.New("core: degenerate value range")
	}
	if lo <= 0 {
		lo = 1e-300
	}
	if hi <= lo {
		hi = lo * 2
	}
	mLo := metric(p.EstimateAt(lo)) // largest metric value (tight bound)
	mHi := metric(p.EstimateAt(hi)) // smallest
	if target > mLo {
		return lo, nil // cannot do better than the tightest bound
	}
	if target < mHi {
		return min(past, hi), nil
	}
	for iter := 0; iter < 80; iter++ {
		mid := math.Sqrt(lo * hi) // geometric bisection: eb spans decades
		if metric(p.EstimateAt(mid)) >= target {
			lo = mid
		} else {
			hi = mid
		}
		if hi/lo < 1+1e-9 {
			break
		}
	}
	return lo, nil
}
