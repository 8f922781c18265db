package compressor

import (
	"errors"
	"fmt"
	"math"
)

// The two emitters predictor.Encode and predictor.Decode drive — each walk
// calls Emit once per value with its prediction, and the emitter quantizes
// (encode) or reconstructs (decode) that value in place — plus lorenzo1D,
// the direct encode and decode loops for the rank-1 Lorenzo walk every
// stream chunk takes. A walk pays a call per value, direct or through the
// generic dictionary; a loop with Emit's body inline pays none.

// errUnpredExhausted reports a symbol stream claiming more exact values than
// the container stores; errUnpredUnused, fewer.
var (
	errUnpredExhausted = errors.New("compressor: unpredictable stream exhausted")
	errUnpredUnused    = errors.New("compressor: unpredictable values left unused")
)

// quantStep is the quantize step Emit and the direct loop share, off the
// divider: q = (v − pred)·inv with inv = 1/(2·eb), c = q rounded to even,
// recon = pred + c·2eb, accepted only when q is more than stepMargin from
// every half-integer, |c| ≤ radius and |v − recon| ≤ eb. Any other value
// takes quantizer.Quantize's arithmetic. An accepted c is Quantize's
// Round((v − pred)/(2·eb)): q carries two roundings and Quantize's quotient
// one, so they differ by at most 3·2⁻⁵³·|q| (plus 2⁻¹⁰⁷⁴ on underflow), under
// 1.1e-11 at |q| ≤ radius + ½ = 32768.5; the 1e-9 margin, 100× that, puts
// both in the same (c − ½, c + ½), where Round and round-to-even agree.
// That argument counts each operation's own rounding, which the Go spec
// lets a compiler skip by fusing a product into the add after it (arm64,
// ppc64le, s390x and riscv64 do; amd64 does not): the explicit float64
// conversions round q and c·2eb first on every architecture, so c, f and
// recon — Quantize's pred + c·2eb — are the same bits on all of them.
// quantize avoids math.Abs, which would price it out of inlining; NaN fails
// every comparison.
type quantStep struct {
	inv   float64 // 1/twoEB when that is a normal, finite number, else NaN
	twoEB float64
	eb    float64
	radF  float64
}

// roundShift is 1.5·2⁵²: for |q| < 2⁵¹, (q + roundShift) − roundShift is q
// rounded to even, in two adds, and +0 where math.RoundToEven gives −0 (as
// Quantize's int32 trip does). A larger |q| gives a c past any radius.
const roundShift, stepMargin = 0x1.8p52, 1e-9

func newQuantStep(eb float64, radius int32) quantStep {
	inv := 1 / (2 * eb)
	if !(inv >= 0x1p-1022 && inv <= math.MaxFloat64) {
		inv = math.NaN() // every q is NaN: every value takes the exact path
	}
	return quantStep{inv: inv, twoEB: 2 * eb, eb: eb, radF: float64(radius)}
}

func (s quantStep) quantize(v, pred float64) (c, recon float64, ok bool) {
	q := float64((v - pred) * s.inv)
	c = q + roundShift - roundShift
	recon = pred + float64(c*s.twoEB)
	f, e := q-c, v-recon
	const h = 0.5 - stepMargin
	return c, recon, f < h && f > -h && c <= s.radF && c >= -s.radF && e <= s.eb && e >= -s.eb
}

// encodeKernel is the compression state: quantizer parameters flattened to
// plain fields plus the output streams. Emit's codes and reconstructions are
// quantizer.Quantize's bit for bit; it then does the symbol/histogram/work
// bookkeeping.
type encodeKernel struct {
	quantStep
	work    []float64 // in: original (possibly transformed) values; out: reconstruction
	syms    []uint32  // out: quantization symbols, one per value
	unpred  []float64 // out: exactly stored values, in visit order
	counts  []int64   // dense per-symbol frequencies (arena-owned, zero on entry)
	touched []uint32  // symbols with counts > 0, append order
	radius  int32
	resSym  uint32
	pos     int
}

// Emit quantizes work[idx] against pred: the hot in-range path updates the
// symbol stream, dense counts, and reconstruction in place; out-of-range and
// precision-loss cases take the unpredictable slow path.
func (k *encodeKernel) Emit(idx int, pred float64) {
	v := k.work[idx]
	c, recon, ok := k.quantize(v, pred)
	if !ok { // the exact path: quantizer.Quantize's arithmetic
		c = math.Round((v - pred) / k.twoEB)
		recon = pred + float64(float64(int32(c))*k.twoEB)
		// NaN fails both range comparisons, like Quantize's IsNaN branch.
		if !(c <= k.radF && c >= -k.radF) || math.Abs(v-recon) > k.eb {
			k.emitUnpred(v)
			return
		}
	}
	sym := uint32(int32(c) + k.radius)
	k.syms[k.pos] = sym
	k.pos++
	if k.counts[sym] == 0 {
		k.touched = append(k.touched, sym)
	}
	k.counts[sym]++
	k.work[idx] = recon
}

// lorenzo1D is predictor.Encode's order-1 Lorenzo walk at rank 1 with the
// step inline and prev in a register, run on a fresh kernel. A value the
// step refuses goes through Emit's exact path.
func (k *encodeKernel) lorenzo1D() {
	s, work, syms, counts := k.quantStep, k.work, k.syms[:len(k.work)], k.counts
	prev := 0.0
	for i, v := range work {
		if c, recon, ok := s.quantize(v, prev); ok {
			sym := uint32(int32(c) + k.radius)
			if syms[i] = sym; counts[sym] == 0 {
				k.touched = append(k.touched, sym)
			}
			counts[sym]++
			work[i], prev = recon, recon
			continue
		}
		k.pos = i
		k.Emit(i, prev)
		prev = work[i]
	}
	k.pos = len(work)
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
	k.work[idx] = pred + float64(float64(int32(code))*k.twoEB)
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
			prev = prev + float64(float64(code)*twoEB)
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
