// Package compressor assembles the full SZ3-style prediction-based
// error-bounded lossy compressor: predictor → linear-scaling quantizer →
// canonical Huffman coder → optional lossless backend (zero-RLE, LZ77, or
// DEFLATE). It supports absolute, value-range-relative, and pointwise-
// relative (log-transform) error bounds and guarantees the bound on every
// reconstructed value.
package compressor

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"time"

	"rqm/internal/ans"
	"rqm/internal/grid"
	"rqm/internal/lz77"
	"rqm/internal/predictor"
	"rqm/internal/quantizer"
	"rqm/internal/rle"
)

// ErrorMode selects how the user's error bound is interpreted.
type ErrorMode int

const (
	// ABS bounds |original − reconstructed| pointwise.
	ABS ErrorMode = iota
	// REL bounds the error relative to the field's value range
	// (absolute bound = eb × (max − min)).
	REL
	// PWREL bounds the error relative to each point's own magnitude,
	// implemented with the standard logarithmic transform.
	PWREL
)

// String names the mode.
func (m ErrorMode) String() string {
	switch m {
	case ABS:
		return "abs"
	case REL:
		return "rel"
	case PWREL:
		return "pwrel"
	}
	return fmt.Sprintf("ErrorMode(%d)", int(m))
}

// ParseErrorMode resolves a mode name.
func ParseErrorMode(s string) (ErrorMode, error) {
	for _, m := range []ErrorMode{ABS, REL, PWREL} {
		if m.String() == s {
			return m, nil
		}
	}
	return 0, fmt.Errorf("compressor: unknown error mode %q", s)
}

// LosslessKind selects the optional lossless stage after Huffman coding.
type LosslessKind int

const (
	// LosslessNone keeps the raw Huffman payload.
	LosslessNone LosslessKind = iota
	// LosslessRLE applies zero-byte run-length encoding (the stage the
	// paper's model reasons about).
	LosslessRLE
	// LosslessLZ77 applies the built-in dictionary coder (Zstandard
	// stand-in).
	LosslessLZ77
	// LosslessFlate applies DEFLATE via compress/flate (Gzip stand-in).
	LosslessFlate
)

// String names the lossless backend.
func (l LosslessKind) String() string {
	switch l {
	case LosslessNone:
		return "none"
	case LosslessRLE:
		return "rle"
	case LosslessLZ77:
		return "lz77"
	case LosslessFlate:
		return "flate"
	}
	return fmt.Sprintf("LosslessKind(%d)", int(l))
}

// ParseLosslessKind resolves a lossless-backend name.
func ParseLosslessKind(s string) (LosslessKind, error) {
	for _, l := range []LosslessKind{LosslessNone, LosslessRLE, LosslessLZ77, LosslessFlate} {
		if l.String() == s {
			return l, nil
		}
	}
	return 0, fmt.Errorf("compressor: unknown lossless backend %q", s)
}

// Options configures one compression run.
type Options struct {
	// Predictor selects the prediction scheme.
	Predictor predictor.Kind
	// Mode interprets ErrorBound.
	Mode ErrorMode
	// ErrorBound is the user bound in Mode semantics; must be positive.
	ErrorBound float64
	// Lossless selects the optional stage after Huffman.
	Lossless LosslessKind
	// Entropy selects the entropy stage (serial Huffman, interleaved
	// multi-stream Huffman, or tANS). The default EntropyHuffman emits the
	// historical version 1 container byte-for-byte.
	Entropy EntropyKind
}

// Stats reports what happened during compression; the experiment harness
// compares these against the model's estimates.
type Stats struct {
	// N is the number of values.
	N int
	// AbsEB is the effective absolute bound in the (possibly transformed)
	// compression domain.
	AbsEB float64
	// OriginalBytes is the field size at its original precision.
	OriginalBytes int64
	// CompressedBytes is the full container size.
	CompressedBytes int64
	// HuffmanBits is the entropy-coded payload size in bits (before
	// lossless), whichever entropy stage produced it.
	HuffmanBits uint64
	// Entropy is the entropy stage actually used (tANS falls back to
	// serial Huffman when the alphabet outgrows the largest table).
	Entropy EntropyKind
	// PayloadBytesFinal is the payload size after the lossless stage.
	PayloadBytesFinal int
	// Unpredictable counts values stored exactly.
	Unpredictable int
	// BitRate is total compressed bits per value.
	BitRate float64
	// BitRateHuffman is Huffman-payload bits per value (the quantity the
	// paper's Eq. 1 estimates).
	BitRateHuffman float64
	// Ratio is OriginalBytes over CompressedBytes.
	Ratio float64
	// PredictTime, EncodeTime, LosslessTime break down the run (the paper's
	// Fig. 9 cost accounting).
	PredictTime  time.Duration
	EncodeTime   time.Duration
	LosslessTime time.Duration
}

// Result is a compressed field plus its statistics.
type Result struct {
	// Bytes is the self-describing compressed container.
	Bytes []byte
	// Stats describes the run.
	Stats Stats
}

const (
	// containerMagic is the little-endian magic of the native
	// prediction-codec container ("RQMC").
	containerMagic   uint32 = 0x52514d43
	containerVersion        = 1
	// containerVersionEntropy (version 2) inserts two bytes after the
	// lossless byte — entropy kind and entropy parameter — and, for tANS,
	// the final states + bit count before the payload lengths. It is
	// emitted only when the entropy stage is not serial Huffman, so every
	// container the serial default writes stays byte-identical to v1.
	containerVersionEntropy = 2
)

// reservedSymbolOffset: symbol = code + radius; the value 2*radius+1 marks
// an unpredictable (exactly stored) sample.
func reservedSymbol(radius int32) uint32 { return uint32(2*radius) + 1 }

// Compress runs the full pipeline on f. It always quantizes at
// quantizer.DefaultRadius; Decompress reads whatever radius a container
// records.
func Compress(f *grid.Field, opts Options) (*Result, error) {
	if f == nil || f.Len() == 0 {
		return nil, errors.New("compressor: empty field")
	}
	if !(opts.ErrorBound > 0) {
		return nil, fmt.Errorf("compressor: error bound must be positive, got %v", opts.ErrorBound)
	}
	pred, err := predictor.New(opts.Predictor)
	if err != nil {
		return nil, err
	}
	if !pred.Supports(f.Rank()) {
		return nil, fmt.Errorf("compressor: predictor %s does not support rank %d", opts.Predictor, f.Rank())
	}
	const radius int32 = quantizer.DefaultRadius

	a := getArena()
	defer a.release()

	// Resolve the absolute bound and transform the data if needed.
	work := a.f64(f.Len())
	copy(work, f.Data)
	absEB := opts.ErrorBound
	var signs, zeros []byte // PWREL bitmaps (1 byte per value pre-RLE)
	switch opts.Mode {
	case ABS:
	case REL:
		lo, hi := f.ValueRange()
		absEB = opts.ErrorBound * (hi - lo)
		if absEB == 0 {
			absEB = opts.ErrorBound // constant field: any positive bound works
		}
	case PWREL:
		absEB = math.Log2(1 + opts.ErrorBound)
		signs, zeros = a.bitmaps(f.Len())
		minLog := math.Inf(1)
		for _, v := range work {
			if v != 0 {
				if lg := math.Log2(math.Abs(v)); lg < minLog {
					minLog = lg
				}
			}
		}
		if math.IsInf(minLog, 1) {
			minLog = 0 // all zeros
		}
		for i, v := range work {
			switch {
			case v == 0:
				zeros[i] = 1
				work[i] = minLog
			case v < 0:
				signs[i] = 1
				work[i] = math.Log2(-v)
			default:
				work[i] = math.Log2(v)
			}
		}
	default:
		return nil, fmt.Errorf("compressor: unknown error mode %d", int(opts.Mode))
	}

	// The quantizer validates the bound; the kernel inlines its arithmetic.
	if _, err := quantizer.New(absEB, radius); err != nil {
		return nil, err
	}

	tPredict := time.Now()
	resSym := reservedSymbol(radius)
	counts, encLUT := a.freqTables(int(resSym) + 1)
	k := &encodeKernel{
		quantStep: newQuantStep(absEB, radius),
		work:      work,
		syms:      a.u32(f.Len()),
		unpred:    a.unpred,
		counts:    counts,
		touched:   a.touched,
		radius:    radius,
		resSym:    resSym,
	}
	var aux []byte
	// Every stream chunk is a rank-1 Lorenzo field.
	if opts.Predictor == predictor.Lorenzo && f.Rank() == 1 {
		k.lorenzo1D()
	} else if aux, err = predictor.Encode(opts.Predictor, f.Dims, work, k); err != nil {
		return nil, err
	}
	syms, unpred := k.syms, k.unpred
	a.unpred, a.touched = k.unpred, k.touched // hand grown slices back to the arena
	// The dense counts double as the entropy stage's frequency table.
	hist := histogram{counts: counts, touched: k.touched}
	predictTime := time.Since(tPredict)

	tEncode := time.Now()
	enc, err := encodeEntropy(a, opts.Entropy, syms, &hist, encLUT)
	if err != nil {
		return nil, err
	}
	huffBits := enc.bits
	encodeTime := time.Since(tEncode)

	tLossless := time.Now()
	finalPayload, err := applyLossless(opts.Lossless, enc.raw)
	if err != nil {
		return nil, err
	}
	losslessTime := time.Since(tLossless)

	// Compress PWREL bitmaps with RLE (they are run-heavy).
	var signsEnc, zerosEnc []byte
	if opts.Mode == PWREL {
		signsEnc = rle.Encode(signs)
		zerosEnc = rle.Encode(zeros)
	}

	out := assembleContainer(f, opts, absEB, aux, unpred, signsEnc, zerosEnc, enc, finalPayload, len(enc.raw))
	st := Stats{
		N:                 f.Len(),
		AbsEB:             absEB,
		OriginalBytes:     f.OriginalBytes(),
		CompressedBytes:   int64(len(out)),
		HuffmanBits:       huffBits,
		Entropy:           enc.kind,
		PayloadBytesFinal: len(finalPayload),
		Unpredictable:     len(unpred),
		BitRate:           float64(len(out)) * 8 / float64(f.Len()),
		BitRateHuffman:    float64(huffBits) / float64(f.Len()),
		Ratio:             float64(f.OriginalBytes()) / float64(len(out)),
		PredictTime:       predictTime,
		EncodeTime:        encodeTime,
		LosslessTime:      losslessTime,
	}
	return &Result{Bytes: out, Stats: st}, nil
}

func applyLossless(kind LosslessKind, payload []byte) ([]byte, error) {
	switch kind {
	case LosslessNone:
		return payload, nil
	case LosslessRLE:
		return rle.Encode(payload), nil
	case LosslessLZ77:
		return lz77.Encode(payload), nil
	case LosslessFlate:
		var buf bytes.Buffer
		fw, err := flate.NewWriter(&buf, flate.DefaultCompression)
		if err != nil {
			return nil, err
		}
		if _, err := fw.Write(payload); err != nil {
			return nil, err
		}
		if err := fw.Close(); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	}
	return nil, fmt.Errorf("compressor: unknown lossless kind %d", int(kind))
}

// undoLossless reverses applyLossless into the arena's raw buffer (the
// result is scratch: it lives until the arena is released).
func undoLossless(a *arena, kind LosslessKind, data []byte, rawLen int) ([]byte, error) {
	var err error
	switch kind {
	case LosslessNone:
		return data, nil
	case LosslessRLE:
		a.raw, err = rle.AppendDecode(a.raw[:0], data, rawLen)
	case LosslessLZ77:
		a.raw = slices.Grow(a.raw[:0], rawLen)[:rawLen]
		err = lz77.DecodeInto(a.raw, data)
	case LosslessFlate:
		fr := flate.NewReader(bytes.NewReader(data))
		defer fr.Close()
		out := slices.Grow(a.raw[:0], rawLen)
		for err == nil {
			if len(out) == cap(out) {
				out = slices.Grow(out, 64<<10)
			}
			var n int
			n, err = fr.Read(out[len(out):cap(out)])
			out = out[:len(out)+n]
		}
		if a.raw = out; err == io.EOF {
			err = nil
		}
	default:
		return nil, fmt.Errorf("compressor: unknown lossless kind %d", int(kind))
	}
	return a.raw, err
}

// assembleContainer lays out the self-describing byte stream in one
// exact-size allocation (the only large allocation a steady-state compress
// makes; everything else comes from the arena).
func assembleContainer(f *grid.Field, opts Options, absEB float64,
	aux []byte, unpred []float64, signsEnc, zerosEnc []byte, enc *entropyEnc, payload []byte, rawPayloadLen int) []byte {

	codebook := enc.codebook
	version := uint8(containerVersion)
	extra := 0
	if enc.kind != EntropyHuffman {
		version = containerVersionEntropy
		extra = 2 // entropy kind + parameter bytes
		if enc.kind == EntropyTANS {
			extra += 4*ans.NumStates + 8 // final states + coded bit count
		}
	}
	name := []byte(f.Name)
	if len(name) > 65535 {
		name = name[:65535]
	}
	size := 4 + 1 + 1 + 1 + 1 + extra + 4 + 8 + 8 + 1 + 1 + // fixed header
		8*f.Rank() + 2 + len(name) +
		4 + 8*len(unpred) +
		4 + len(aux) + 4 + len(signsEnc) + 4 + len(zerosEnc) +
		4 + len(codebook) + 4 + 4 + len(payload)
	out := make([]byte, 0, size)
	le := binary.LittleEndian
	var s8 [8]byte
	p32 := func(v uint32) { le.PutUint32(s8[:4], v); out = append(out, s8[:4]...) }
	p64 := func(v uint64) { le.PutUint64(s8[:], v); out = append(out, s8[:]...) }

	p32(containerMagic)
	out = append(out, version, uint8(opts.Predictor), uint8(opts.Mode), uint8(opts.Lossless))
	if version >= containerVersionEntropy {
		out = append(out, uint8(enc.kind), enc.param)
	}
	p32(quantizer.DefaultRadius)
	p64(math.Float64bits(opts.ErrorBound))
	p64(math.Float64bits(absEB))
	out = append(out, uint8(f.Prec), uint8(f.Rank()))
	for _, d := range f.Dims {
		p64(uint64(d))
	}
	le.PutUint16(s8[:2], uint16(len(name)))
	out = append(out, s8[:2]...)
	out = append(out, name...)
	p32(uint32(len(unpred)))
	for _, v := range unpred {
		p64(math.Float64bits(v))
	}
	p32(uint32(len(aux)))
	out = append(out, aux...)
	p32(uint32(len(signsEnc)))
	out = append(out, signsEnc...)
	p32(uint32(len(zerosEnc)))
	out = append(out, zerosEnc...)
	p32(uint32(len(codebook)))
	out = append(out, codebook...)
	if enc.kind == EntropyTANS {
		for _, st := range enc.states {
			p32(st)
		}
		p64(enc.bitLen)
	}
	p32(uint32(rawPayloadLen))
	p32(uint32(len(payload)))
	out = append(out, payload...)
	return out
}

// Decompress reconstructs a field from a container produced by Compress.
// The parse is a zero-copy grid.Cursor: aux, bitmaps, codebook, and payload
// are subslices of data, so the only large allocation is the returned
// field's value slice (the symbol scratch comes from the arena pool).
func Decompress(data []byte) (*grid.Field, error) { return DecompressInto(nil, data) }

// DecompressInto is Decompress decoding into dst: when cap(dst) holds the
// field, the returned field's Data is dst[:n] and the decode allocates no
// value slice at all. dst's prior contents do not matter (it is cleared
// first), and on error they are unspecified.
func DecompressInto(dst []float64, data []byte) (*grid.Field, error) {
	c := grid.NewCursor(data)
	if c.U32() != containerMagic {
		return nil, errors.New("compressor: bad magic")
	}
	version := c.U8()
	if c.Err() == nil && version != containerVersion && version != containerVersionEntropy {
		return nil, fmt.Errorf("compressor: unsupported version %d", version)
	}
	predKind, mode, lossless := c.U8(), c.U8(), c.U8()
	enc := &entropyEnc{kind: EntropyHuffman}
	if version >= containerVersionEntropy {
		enc.kind, enc.param = EntropyKind(c.U8()), c.U8()
		if enc.kind > EntropyTANS {
			return nil, fmt.Errorf("compressor: unknown entropy stage %d", enc.kind)
		}
	}
	radius := int32(c.U32())
	c.F64() // user error bound, unused on decode
	absEB := c.F64()
	prec := c.U8()
	dims, n := c.Dims()
	name := c.Take(int(c.U16()))
	unpredCount := c.U32()
	if int(unpredCount) > n {
		return nil, errors.New("compressor: unpredictable count exceeds field size")
	}
	unpredRaw := c.Take(8 * int(unpredCount))
	aux, signsEnc, zerosEnc := c.Blob(), c.Blob(), c.Blob()
	enc.codebook = c.Blob()
	if enc.kind == EntropyTANS {
		for i := range enc.states {
			enc.states[i] = c.U32()
		}
		enc.bitLen = c.U64()
	}
	rawPayloadLen := c.U32()
	payload := c.Blob()
	if err := c.Err(); err != nil {
		return nil, err
	}
	unpred := make([]float64, unpredCount)
	for i := range unpred {
		unpred[i] = math.Float64frombits(binary.LittleEndian.Uint64(unpredRaw[8*i:]))
	}

	a := getArena()
	defer a.release()
	rawPayload, err := undoLossless(a, LosslessKind(lossless), payload, int(rawPayloadLen))
	if err != nil {
		return nil, err
	}
	// A Huffman symbol costs at least one bit, so a payload this short cannot
	// hold the declared values: refuse before sizing anything by n. (tANS
	// symbols can cost zero bits; its decoder checks its own bit count.)
	if enc.kind != EntropyTANS && n > 8*len(rawPayload) {
		return nil, fmt.Errorf("%w: %d values over a %d-byte payload", grid.ErrTruncated, n, len(rawPayload))
	}
	syms := a.u32(n)
	if err := decodeEntropy(enc, rawPayload, syms); err != nil {
		return nil, err
	}

	pred, err := predictor.New(predictor.Kind(predKind))
	if err != nil {
		return nil, err
	}
	if _, err := quantizer.New(absEB, radius); err != nil {
		return nil, err
	}
	// work escapes as the returned field's data, so it is the caller's dst
	// or fresh, never the arena's.
	work := grid.Reuse(dst, n)
	k := &decodeKernel{
		syms:   syms,
		work:   work,
		unpred: unpred,
		twoEB:  2 * absEB,
		radius: radius,
		resSym: reservedSymbol(radius),
	}
	if !pred.Supports(len(dims)) {
		return nil, fmt.Errorf("compressor: predictor %s does not support rank %d",
			predictor.Kind(predKind), len(dims))
	}
	// Every stream chunk is a rank-1 Lorenzo field.
	if predictor.Kind(predKind) == predictor.Lorenzo && len(dims) == 1 {
		k.lorenzo1D()
	} else if err := predictor.Decode(predictor.Kind(predKind), dims, work, aux, k); err != nil {
		return nil, err
	}
	if k.err == nil && k.up != len(unpred) {
		k.err = fmt.Errorf("%w: %d of %d", errUnpredUnused, k.up, len(unpred))
	}
	if k.err != nil {
		return nil, k.err
	}

	if ErrorMode(mode) == PWREL {
		signs, err := rle.AppendDecode(a.signs[:0], signsEnc, n)
		if err != nil {
			return nil, err
		}
		a.signs = signs
		zeros, err := rle.AppendDecode(a.zeros[:0], zerosEnc, n)
		if err != nil {
			return nil, err
		}
		a.zeros = zeros
		if len(signs) != n || len(zeros) != n {
			return nil, errors.New("compressor: bitmap length mismatch")
		}
		for i := range work {
			switch {
			case zeros[i] == 1:
				work[i] = 0
			case signs[i] == 1:
				work[i] = -math.Exp2(work[i])
			default:
				work[i] = math.Exp2(work[i])
			}
		}
	}

	out, err := grid.FromData(string(name), grid.Precision(prec), work, dims...)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// VerifyErrorBound checks that recon satisfies the bound against orig: a
// finite original needs a reconstruction within the bound (with a 1e-9
// relative slack for float round-off), a NaN needs NaN back, and ±Inf the
// same signed infinity. Returns nil if every sample passes.
func VerifyErrorBound(orig, recon *grid.Field, mode ErrorMode, eb float64) error {
	if orig.Len() != recon.Len() {
		return errors.New("compressor: field sizes differ")
	}
	switch mode {
	case REL:
		lo, hi := orig.ValueRange()
		abs := eb * (hi - lo)
		if abs == 0 {
			abs = eb
		}
		return VerifyErrorBound(orig, recon, ABS, abs)
	case ABS, PWREL:
	default:
		return nil
	}
	for i, o := range orig.Data {
		bound := eb * (1 + 1e-9)
		if mode == PWREL {
			bound *= math.Abs(o) // a zero must come back exactly
		}
		if r := recon.Data[i]; !withinBound(o, r, bound) {
			return fmt.Errorf("compressor: %s bound violated at %d: %g reconstructs as %g, bound %g",
				mode, i, o, r, bound)
		}
	}
	return nil
}

// withinBound reports whether r reconstructs o within bound: a finite o
// needs |o − r| ≤ bound, which a NaN r fails; a NaN o needs NaN, and ±Inf
// the same signed infinity.
func withinBound(o, r, bound float64) bool {
	switch {
	case math.IsNaN(o):
		return math.IsNaN(r)
	case math.IsInf(o, 0):
		return r == o
	}
	return math.Abs(o-r) <= bound
}
