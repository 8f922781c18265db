package compressor

import (
	"errors"
	"fmt"
	"math"
)

// The two emitters predictor.Encode and predictor.Decode drive — each walk
// calls Emit once per value with its prediction, and the emitter quantizes
// (encode) or reconstructs (decode) that value in place — plus lorenzo1D,
// the direct decode loop for the rank-1 Lorenzo walk every stream chunk
// takes. A walk pays a call per value, direct or through the generic
// dictionary; a loop with Emit's body inline pays none.

// errUnpredExhausted reports a symbol stream claiming more exact values than
// the container stores; errUnpredUnused, fewer.
var (
	errUnpredExhausted = errors.New("compressor: unpredictable stream exhausted")
	errUnpredUnused    = errors.New("compressor: unpredictable values left unused")
)

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

// lorenzo1D is predictor.Decode's order-1 Lorenzo walk at rank 1 with
// Emit's hot path inline, run on a fresh kernel. Exact and out-of-range
// symbols go through Emit itself, so the first error stops the loop with
// work, sp and up where the walk would leave them.
func (k *decodeKernel) lorenzo1D() {
	work, radius, twoEB := k.work, int64(k.radius), k.twoEB
	prev := 0.0
	for i, s := range k.syms[:len(work)] {
		if code := int64(s) - radius; code <= radius {
			prev = prev + float64(code)*twoEB
			work[i] = prev
			continue
		}
		k.sp = i
		if k.Emit(i, prev); k.err != nil {
			return
		}
		prev = work[i]
	}
	k.sp = len(work)
}
