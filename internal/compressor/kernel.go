package compressor

import (
	"errors"
	"fmt"
	"math"
)

// The two emitters predictor.Encode and predictor.Decode drive: each walk
// calls Emit once per value with its prediction, and the emitter quantizes
// (encode) or reconstructs (decode) that value in place.

// errUnpredExhausted reports a symbol stream claiming more exact values than
// the container stores.
var errUnpredExhausted = errors.New("compressor: unpredictable stream exhausted")

// encodeKernel is the compression state: quantizer parameters flattened to
// plain fields plus the output streams. Emit inlines quantizer.Quantize's
// float operations in the same order, so its codes and reconstructions are
// Quantize's bit for bit, then does the symbol/histogram/work bookkeeping.
type encodeKernel struct {
	work    []float64 // in: original (possibly transformed) values; out: reconstruction
	syms    []uint32  // out: quantization symbols, one per value
	unpred  []float64 // out: exactly stored values, in visit order
	counts  []int64   // dense per-symbol frequencies (arena-owned, zero on entry)
	touched []uint32  // symbols with counts > 0, append order
	eb      float64
	twoEB   float64
	radF    float64
	radius  int32
	resSym  uint32
	pos     int
}

// Emit quantizes work[idx] against pred: the hot in-range path updates the
// symbol stream, dense counts, and reconstruction in place; out-of-range and
// precision-loss cases take the unpredictable slow path.
func (k *encodeKernel) Emit(idx int, pred float64) {
	v := k.work[idx]
	c := math.Round((v - pred) / k.twoEB)
	// NaN fails both comparisons, exactly like the IsNaN branch in
	// quantizer.Quantize.
	if !(c <= k.radF && c >= -k.radF) {
		k.emitUnpred(v)
		return
	}
	code := int32(c)
	recon := pred + float64(code)*k.twoEB
	if math.Abs(v-recon) > k.eb {
		k.emitUnpred(v)
		return
	}
	sym := uint32(code) + uint32(k.radius)
	k.syms[k.pos] = sym
	k.pos++
	if k.counts[sym] == 0 {
		k.touched = append(k.touched, sym)
	}
	k.counts[sym]++
	k.work[idx] = recon
}

// emitUnpred stores v exactly; work[idx] already holds it.
func (k *encodeKernel) emitUnpred(v float64) {
	k.syms[k.pos] = k.resSym
	k.pos++
	if k.counts[k.resSym] == 0 {
		k.touched = append(k.touched, k.resSym)
	}
	k.counts[k.resSym]++
	k.unpred = append(k.unpred, v)
}

// decodeKernel is the decompression state: symbols in, reconstructed values
// out. Its first error is sticky.
type decodeKernel struct {
	syms   []uint32
	work   []float64
	unpred []float64
	twoEB  float64
	radius int32
	resSym uint32
	sp, up int
	err    error
}

// Emit consumes the next symbol and reconstructs work[idx]. After the first
// error it does nothing; Decompress reports the error once the walk ends.
func (k *decodeKernel) Emit(idx int, pred float64) {
	if k.err != nil {
		return
	}
	s := k.syms[k.sp]
	k.sp++
	if s == k.resSym {
		if k.up >= len(k.unpred) {
			k.err = errUnpredExhausted
			return
		}
		k.work[idx] = k.unpred[k.up]
		k.up++
		return
	}
	code := int64(s) - int64(k.radius)
	if code < -int64(k.radius) || code > int64(k.radius) {
		k.err = fmt.Errorf("compressor: symbol %d out of range", s)
		return
	}
	k.work[idx] = pred + float64(int32(code))*k.twoEB
}
