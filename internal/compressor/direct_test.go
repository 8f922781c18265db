package compressor

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"rqm/internal/grid"
	"rqm/internal/predictor"
	"rqm/internal/quantizer"
)

// FuzzDirectDecodeMatchesWalk holds the direct rank-1 Lorenzo loop to the
// generic walk it replaces, errors included: from the same symbols,
// unpredictable list and bound — reserved and out-of-range symbols, lists
// too short and too long — lorenzo1D and predictor.Decode with a
// decodeKernel must leave the same value bits, the same error, and the same
// sp and up.
func FuzzDirectDecodeMatchesWalk(f *testing.F) {
	f.Add(uint8(3), math.Float64bits(0.02), uint8(0), []byte{3, 4, 2, 3, 6, 0})
	f.Add(uint8(3), math.Float64bits(0.02), uint8(1), []byte{7, 3, 7, 7, 2})
	f.Add(uint8(3), math.Float64bits(0.02), uint8(5), []byte{7, 3, 3})
	f.Add(uint8(2), math.Float64bits(1e-9), uint8(2), []byte{1, 8, 5, 255, 4})
	f.Add(uint8(0), math.Float64bits(math.NaN()), uint8(1), []byte{0, 3, 1})
	f.Fuzz(func(t *testing.T, radiusB uint8, twoEBBits uint64, unpredN uint8, raw []byte) {
		radius := int32(radiusB % 17)
		syms := make([]uint32, len(raw))
		for i, b := range raw {
			// Valid codes, the reserved symbol 2·radius+1, two symbols past
			// it, and one far out of range.
			syms[i] = uint32(b) % uint32(2*radius+4)
			if b == 255 {
				syms[i] = math.MaxUint32
			}
		}
		unpred := make([]float64, unpredN%16)
		for i := range unpred {
			unpred[i] = float64(i) - 2.25
		}
		kernel := func() *decodeKernel {
			return &decodeKernel{
				syms:   syms,
				work:   make([]float64, len(syms)),
				unpred: unpred,
				twoEB:  math.Float64frombits(twoEBBits),
				radius: radius,
				resSym: reservedSymbol(radius),
			}
		}
		direct, walked := kernel(), kernel()
		direct.lorenzo1D()
		if err := predictor.Decode(predictor.Lorenzo, []int{len(syms)}, walked.work, nil, walked); err != nil {
			t.Fatal(err)
		}
		for i := range syms {
			if a, b := math.Float64bits(direct.work[i]), math.Float64bits(walked.work[i]); a != b {
				t.Fatalf("value %d: direct %x, walk %x", i, a, b)
			}
		}
		if fmt.Sprint(direct.err) != fmt.Sprint(walked.err) {
			t.Fatalf("error: direct %v, walk %v", direct.err, walked.err)
		}
		if direct.sp != walked.sp || direct.up != walked.up {
			t.Fatalf("direct stops at sp=%d up=%d, walk at sp=%d up=%d", direct.sp, direct.up, walked.sp, walked.up)
		}
	})
}

// FuzzDirectEncodeMatchesWalk holds the direct rank-1 Lorenzo encode loop,
// and with it the quantize step, to quantizer.Quantize under the generic
// walk: from the same values, bound and radius, lorenzo1D and
// predictor.Encode with a quantizerEmitter must produce the same symbols,
// exactly stored values, counts, first-seen symbol order and work bits.
// raw holds the values as little-endian float64 bits.
func FuzzDirectEncodeMatchesWalk(f *testing.F) {
	vals := func(vs ...float64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	// Exact ties: v − pred = (k+½)·2eb, where Round and RoundToEven differ.
	f.Add(uint16(32767), 0.375, vals(1.875, 0.375, -0.375, 0.75, 4.5))
	f.Add(uint16(32767), 0.5, vals(0.5, -0.5, 2.5, 1.5, -2.5))
	// ±radius±½, at an even and an odd radius.
	f.Add(uint16(32767), 0.5, vals(32768.5, 0, 32767.5, -0.5, -32768))
	f.Add(uint16(6), 0.5, vals(6.5, 0, -7.5, -1, 6.5, -0.5))
	// Non-finite values, −0 after an exactly stored −0 (pred −0), subnormals.
	f.Add(uint16(32767), 0.01, vals(math.NaN(), 1, math.Inf(1), 2, math.Inf(-1), 3, math.NaN()))
	f.Add(uint16(32767), 0.5, vals(1e300, math.Copysign(0, -1), -1e-20, math.Copysign(0, -1), 0))
	f.Add(uint16(32767), 1e-310, vals(5e-324, -5e-324, 0x1p-1022, 1e-310, 3e-310))
	// 2eb whose reciprocal overflows, and one whose reciprocal is subnormal.
	f.Add(uint16(32767), 0x1p-1031, vals(1e-310, 2e-310, -1e-311, 0))
	f.Add(uint16(32767), 0x1.8p1021, vals(1e308, -1e308, 5e307, 1e300))
	smooth := make([]float64, 64)
	for i := range smooth {
		smooth[i] = math.Sin(float64(i) * 0.3)
	}
	f.Add(uint16(32767), 1e-3, vals(smooth...))
	f.Fuzz(func(t *testing.T, radiusB uint16, eb float64, raw []byte) {
		radius := int32(radiusB%quantizer.DefaultRadius) + 1
		q, err := quantizer.New(eb, radius)
		if err != nil || len(raw) < 8 {
			t.Skip()
		}
		work := make([]float64, len(raw)/8)
		for i := range work {
			work[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		ref := &quantizerEmitter{q: q, work: slices.Clone(work)}
		if _, err := predictor.Encode(predictor.Lorenzo, []int{len(work)}, ref.work, ref); err != nil {
			t.Fatal(err)
		}
		resSym := reservedSymbol(radius)
		k := &encodeKernel{
			quantStep: newQuantStep(eb, radius),
			work:      work,
			syms:      make([]uint32, len(work)),
			counts:    make([]int64, resSym+1),
			radius:    radius,
			resSym:    resSym,
		}
		k.lorenzo1D()
		if k.pos != len(work) || !slices.Equal(k.syms, ref.syms) {
			t.Fatalf("symbols: direct %v (pos %d), walk %v", k.syms, k.pos, ref.syms)
		}
		bits := func(vs []float64) []uint64 {
			out := make([]uint64, len(vs))
			for i, v := range vs {
				out[i] = math.Float64bits(v)
			}
			return out
		}
		if a, b := bits(k.unpred), bits(ref.exact); !slices.Equal(a, b) {
			t.Fatalf("stored exactly: direct %x, walk %x", a, b)
		}
		if a, b := bits(k.work), bits(ref.work); !slices.Equal(a, b) {
			t.Fatalf("work: direct %x, walk %x", a, b)
		}
		if !slices.Equal(k.counts, ref.counts) || !slices.Equal(k.touched, ref.touched) {
			t.Fatalf("touched: direct %v, walk %v", k.touched, ref.touched)
		}
	})
}

// reframeUnpred rewrites a container whose unpredictable list holds exactly
// two values, the first of them first, to declare count values instead: the
// list is cut or padded with zero values to match, and nothing else moves.
func reframeUnpred(t *testing.T, data []byte, first float64, count int) []byte {
	t.Helper()
	at := bytes.Index(data, binary.LittleEndian.AppendUint64(nil, math.Float64bits(first)))
	if at < 4 || binary.LittleEndian.Uint32(data[at-4:]) != 2 {
		t.Fatalf("no two-value unpredictable list starting with %g", first)
	}
	list := make([]byte, 8*count)
	copy(list, data[at:at+16])
	out := binary.LittleEndian.AppendUint32(bytes.Clone(data[:at-4]), uint32(count))
	out = append(out, list...)
	return append(out, data[at+16:]...)
}

// TestUnpredictableCountMustMatchSymbols: a container declaring one more
// unpredictable value than its symbols use is refused, like one declaring
// one fewer — through the direct rank-1 loop and the generic walk alike.
func TestUnpredictableCountMustMatchSymbols(t *testing.T) {
	vals := []float64{0, 1, 2, 3, 4, 5, 1e300, -1e300}
	for _, dims := range [][]int{{8}, {2, 4}} {
		t.Run(fmt.Sprint(dims), func(t *testing.T) {
			f, err := grid.FromData("unpred", grid.Float64, vals, dims...)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Compress(f, Options{Predictor: predictor.Lorenzo, Mode: ABS, ErrorBound: 0.01})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Decompress(reframeUnpred(t, res.Bytes, 1e300, 2)); err != nil {
				t.Fatalf("the container as written: %v", err)
			}
			if _, err := Decompress(reframeUnpred(t, res.Bytes, 1e300, 3)); !errors.Is(err, errUnpredUnused) {
				t.Fatalf("three declared, two used: %v, want %v", err, errUnpredUnused)
			}
			if _, err := Decompress(reframeUnpred(t, res.Bytes, 1e300, 1)); !errors.Is(err, errUnpredExhausted) {
				t.Fatalf("one declared, two used: %v, want %v", err, errUnpredExhausted)
			}
		})
	}
}
