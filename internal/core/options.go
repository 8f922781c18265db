// Package core implements the paper's contribution: the analytical
// ratio-quality model for prediction-based lossy compression. From a single
// cheap sampling pass (default 1% of the data) it estimates, for any error
// bound, the compression bit-rate/ratio (Huffman model Eq. 1–3, RLE model
// Eq. 4–8, plus per-stage overheads), the compression-error distribution
// (Eq. 10–11), and the post-hoc analysis quality (PSNR Eq. 12, SSIM Eq. 15,
// FFT spectra §III-D4). It also solves the inverse problems: the error
// bound for a target bit-rate (Eq. 2 with low-rate anchor interpolation)
// and for a target PSNR.
package core

import (
	"rqm/internal/predictor"
)

// EntropyModel selects the size model for the entropy stage.
type EntropyModel int

const (
	// EntropyModelHuffman models Eq. 1 Huffman codelengths: L = −log2 p with
	// the most frequent code clamped to at least 1 bit and a 1 bit/symbol
	// floor overall. This matches the serial and interleaved Huffman stages
	// (interleaving changes decode throughput, not coded size, beyond a few
	// framing bytes the header overhead already covers).
	EntropyModelHuffman EntropyModel = iota
	// EntropyModelANS models the Shannon entropy H = Σ p·(−log2 p) that a
	// tANS coder approaches: no per-symbol floor, so skewed histograms are
	// predicted below 1 bit/value — the regime where Huffman's clamp makes
	// Eq. 1 overshoot badly.
	EntropyModelANS
)

// The method's constants. The paper fixes them (§III-B/§III-C); nothing in
// the tree ever set them to anything else, so they are not options.
const (
	// c2Lorenzo and c2Interp are the Eq. 9 transfer fractions C2.
	c2Lorenzo = 0.2
	c2Interp  = 0.1
	// correctionThreshold is θ2 in Eq. 9: the correction layer engages once
	// the top code's share reaches it.
	correctionThreshold = 0.8
	// rleC1Bits is C1 in Eq. 4–5: the fixed cost in bits of representing one
	// run of consecutive zero codes — a marker byte plus a one-byte varint
	// in the byte-oriented RLE.
	rleC1Bits = 16
	// headerBytes is the fixed container overhead the model assumes.
	headerBytes = 120
)

// anchorP0 are the central-bin shares used as anchor points for the
// low-bit-rate regime of the inverse solve.
var anchorP0 = [...]float64{0.5, 0.8, 0.95}

// Options configures the model. SampleRate and Seed steer the sampling pass
// and DisableCorrection is the ablation switch; UseLossless and Entropy
// describe the pipeline being modeled. Codec.Profile derives those two from
// the codec options, so only direct NewProfile callers — which have no codec
// options to read — state them. The quantizer radius is not an option: every
// compressor quantizes at quantizer.DefaultRadius, so the model assumes it.
// The zero value is the paper's default pipeline: 1% sampling, Huffman, no
// lossless stage.
type Options struct {
	// SampleRate is the fraction of points sampled (paper default 0.01).
	SampleRate float64
	// Seed makes sampling deterministic.
	Seed uint64
	// DisableCorrection turns off the Eq. 9 bin-transfer correction layer
	// (exposed for the ablation benches).
	DisableCorrection bool
	// UseLossless includes the RLE-modeled lossless stage in the total
	// bit-rate (matches pipelines that enable a lossless backend).
	UseLossless bool
	// Entropy selects the entropy-stage size model (zero value: Huffman,
	// the paper's Eq. 1). Codecs that code with tANS profile with
	// EntropyModelANS so estimates and inverse solves track the fractional
	// bits/symbol the coder actually achieves.
	Entropy EntropyModel
}

// normalize fills defaults in place and returns the value for chaining.
func (o Options) normalize() Options {
	if o.SampleRate <= 0 || o.SampleRate > 1 {
		o.SampleRate = 0.01
	}
	return o
}

// c2For returns the Eq. 9 transfer fraction for a predictor kind (0 disables
// correction for kinds the paper does not correct).
func c2For(kind predictor.Kind) float64 {
	switch kind {
	case predictor.Lorenzo, predictor.Lorenzo2:
		return c2Lorenzo
	case predictor.Interpolation, predictor.InterpolationCubic:
		return c2Interp
	}
	return 0
}
