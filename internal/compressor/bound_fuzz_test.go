package compressor

import (
	"encoding/binary"
	"math"
	"testing"

	"rqm/internal/grid"
	"rqm/internal/predictor"
)

// FuzzCompressBound is the compressor's bound oracle: whatever the
// predictor, bound mode, bound and values, a container Compress accepts must
// decode to values VerifyErrorBound accepts. The shape byte picks one of
// pinnedShapes (ranks 1–4, edge shapes included) and raw supplies the values
// as little-endian float64 bits, repeated to fill the shape.
func FuzzCompressBound(f *testing.F) {
	kinds := predictor.Kinds()
	for i, dims := range pinnedShapes {
		kf := kernelField(f, dims...)
		raw := make([]byte, 0, 8*kf.Len())
		for _, v := range kf.Data {
			raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(v))
		}
		f.Add(uint8(i%len(kinds)), uint8(i%3), uint8(2), uint8(i), raw)
	}
	f.Fuzz(func(t *testing.T, predB, modeB, ebB, shapeB uint8, raw []byte) {
		if len(raw) < 8 {
			return
		}
		pk := kinds[int(predB)%len(kinds)]
		mode := ErrorMode(modeB % 3)
		eb := math.Pow(10, -float64(1+ebB%15)) // 1e-1 … 1e-15
		if mode == PWREL {
			// PWREL quantizes log2|v| and reconstructs through exp2, and the
			// round trip does not hold the bound everywhere: below 1e-3 a
			// value at a code edge lands just past eb·|v| (1e-7: by a factor
			// 1+1.06e-9), a magnitude near MaxFloat64 decodes to +Inf, and
			// a subnormal loses its precision. Those inputs are known
			// defects of the transform, not of any walk, so PWREL is fuzzed
			// on normal magnitudes at the bounds it holds.
			eb = math.Pow(10, -float64(1+ebB%3))
		}
		dims := pinnedShapes[int(shapeB)%len(pinnedShapes)]
		p, err := predictor.New(pk)
		if err != nil {
			t.Fatal(err)
		}
		if !p.Supports(len(dims)) {
			return
		}
		n := 1
		for _, d := range dims {
			n *= d
		}
		data := make([]float64, n)
		for i := range data {
			j := 8 * (i % (len(raw) / 8))
			data[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[j:]))
			if a := math.Abs(data[i]); mode == PWREL && a != 0 && !(a >= 0x1p-1022 && a < 0x1p1023) {
				return
			}
		}
		orig, err := grid.FromData("fuzz", grid.Float64, data, dims...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Compress(orig, Options{Predictor: pk, Mode: mode, ErrorBound: eb})
		if err != nil {
			return // refused input (e.g. an infinite value range under REL)
		}
		back, err := Decompress(res.Bytes)
		if err != nil {
			t.Fatalf("%s %v %s %g: own container does not decode: %v", pk, dims, mode, eb, err)
		}
		if err := VerifyErrorBound(orig, back, mode, eb); err != nil {
			t.Fatalf("%s %v %s %g: %v", pk, dims, mode, eb, err)
		}
	})
}
