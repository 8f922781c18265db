package transform

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"rqm/internal/compressor"
	"rqm/internal/core"
	"rqm/internal/datagen"
	"rqm/internal/grid"
	"rqm/internal/stats"
)

// pinnedShapes cover every rank with edge blocks clipped on every axis
// (7, 5×9, 17×9×6, 9×1×6×5), exact multiples of the block edge (64, 16×16,
// 4×4×4×4), a single value and a unit axis.
var pinnedShapes = [][]int{
	{1}, {7}, {64}, {5, 9}, {16, 16}, {3, 4, 5}, {17, 9, 6}, {2, 3, 5, 7}, {4, 4, 4, 4}, {9, 1, 6, 5},
}

// pinField is a smooth ramp with noise and a spike every 41 values; odd
// ranks are stored as float32 so both precision bytes are pinned.
func pinField(t testing.TB, dims ...int) *grid.Field {
	t.Helper()
	n := 1
	for _, d := range dims {
		n *= d
	}
	data := make([]float64, n)
	rng := stats.NewXorShift64(uint64(n)*2654435761 + uint64(len(dims)))
	for i := range data {
		data[i] = 3*math.Sin(float64(i)*0.07) + 0.05*rng.Float64()
	}
	for i := 40; i < n; i += 41 {
		data[i] = 1e3 * (rng.Float64() - 0.5)
	}
	prec := grid.Float64
	if len(dims)%2 == 1 {
		prec = grid.Float32
		for i, v := range data {
			data[i] = float64(float32(v))
		}
	}
	f, err := grid.FromData("transform-pin", prec, data, dims...)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestTransformContainersPinned pins the transform codec's bytes: one
// SHA-256 over the SHA-256 of every container Compress writes (pinField at
// each pinned shape under bounds 1e-3, 0.5 and 10), the bits of every value
// Decompress returns, and one NewProfile estimate on nyx/temperature. A
// tiling, gather, transform or coding change that moves one byte, one value
// or one sampled coefficient changes the hash.
func TestTransformContainersPinned(t *testing.T) {
	const want = "ff93126222a71cea4526813e74e73eeb7551341717bc7dfd7e1021428d7a7a46"
	h := sha256.New()
	var scratch [8]byte
	for _, dims := range pinnedShapes {
		f := pinField(t, dims...)
		for _, eb := range []float64{1e-3, 0.5, 10} {
			res, err := Compress(f, Options{ErrorBound: eb})
			if err != nil {
				t.Fatalf("%v eb=%g: %v", dims, eb, err)
			}
			back, err := Decompress(res.Bytes)
			if err != nil {
				t.Fatalf("%v eb=%g: decompress: %v", dims, eb, err)
			}
			if err := compressor.VerifyErrorBound(f, back, compressor.ABS, eb); err != nil {
				t.Fatalf("%v eb=%g: %v", dims, eb, err)
			}
			sum := sha256.Sum256(res.Bytes)
			h.Write(sum[:])
			for _, v := range back.Data {
				binary.LittleEndian.PutUint64(scratch[:], math.Float64bits(v))
				h.Write(scratch[:])
			}
		}
	}
	f, err := datagen.GenerateField("nyx/temperature", 42, datagen.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := NewProfile(f, 0.3, 7, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := f.ValueRange()
	// %v prints each float64 in its shortest round-tripping form, so the
	// text is as exact as the bits.
	fmt.Fprintf(h, "%v %+v", prof.Errors, prof.EstimateAt(1e-3*(hi-lo)))
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("transform containers hash %s, want %s", got, want)
	}
}
