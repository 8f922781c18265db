package compressor

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"rqm/internal/grid"
	"rqm/internal/predictor"
	"rqm/internal/stats"
)

// kernelField synthesizes a deterministic field with smooth structure plus
// noise and a few extreme outliers (to exercise the unpredictable path).
func kernelField(t testing.TB, dims ...int) *grid.Field {
	t.Helper()
	n := 1
	for _, d := range dims {
		n *= d
	}
	data := make([]float64, n)
	rng := stats.NewXorShift64(uint64(n)*2654435761 + uint64(len(dims)))
	for i := range data {
		data[i] = math.Sin(float64(i)*0.05) + 0.01*rng.Float64()
	}
	// Outliers every 97 samples blow past any radius and must be stored raw.
	for i := 96; i < n; i += 97 {
		data[i] = 1e18 * (1 + rng.Float64())
	}
	f, err := grid.FromData("kernel-test", grid.Float64, data, dims...)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// compressBothPaths runs Compress with the fused kernels on and off.
func compressBothPaths(t *testing.T, f *grid.Field, opts Options) (fused, generic *Result) {
	t.Helper()
	restore := SetFusedKernels(true)
	defer restore()
	fused, err := Compress(f, opts)
	if err != nil {
		t.Fatalf("fused compress: %v", err)
	}
	SetFusedKernels(false)
	generic, err = Compress(f, opts)
	if err != nil {
		t.Fatalf("generic compress: %v", err)
	}
	return fused, generic
}

// TestFusedKernelsMatchGenericWalk is the golden equivalence property: for
// every fused (predictor, rank) pair, across bound modes and edge sizes
// (n=1, prime dims, single rows/columns), the fused path must emit a
// container byte-identical to the generic Visit walk, decode identically
// under both paths, and hold the error bound pointwise.
func TestFusedKernelsMatchGenericWalk(t *testing.T) {
	shapes := [][]int{
		{1}, {2}, {3}, {127}, {4096},
		{1, 1}, {1, 37}, {37, 1}, {31, 29}, {64, 64},
		{1, 1, 1}, {5, 1, 13}, {13, 11, 7}, {16, 16, 16},
	}
	preds := []predictor.Kind{
		predictor.Lorenzo, predictor.Lorenzo2,
		predictor.Interpolation, predictor.InterpolationCubic,
	}
	modes := []struct {
		mode ErrorMode
		eb   float64
	}{
		{ABS, 1e-3},
		{REL, 1e-3},
		{PWREL, 1e-2},
	}
	for _, dims := range shapes {
		f := kernelField(t, dims...)
		for _, pk := range preds {
			p, err := predictor.New(pk)
			if err != nil {
				t.Fatal(err)
			}
			if !p.Supports(len(dims)) {
				continue
			}
			for _, m := range modes {
				name := fmt.Sprintf("%s/%v/%s", pk, dims, m.mode)
				t.Run(name, func(t *testing.T) {
					opts := Options{Predictor: pk, Mode: m.mode, ErrorBound: m.eb}
					fused, generic := compressBothPaths(t, f, opts)
					if !bytes.Equal(fused.Bytes, generic.Bytes) {
						t.Fatalf("fused and generic containers differ: %d vs %d bytes",
							len(fused.Bytes), len(generic.Bytes))
					}
					if fused.Stats.Unpredictable != generic.Stats.Unpredictable ||
						fused.Stats.HuffmanBits != generic.Stats.HuffmanBits ||
						fused.Stats.P0 != generic.Stats.P0 {
						t.Fatalf("fused and generic stats differ: %+v vs %+v",
							fused.Stats, generic.Stats)
					}

					restore := SetFusedKernels(true)
					fusedDec, err := Decompress(fused.Bytes)
					if err != nil {
						t.Fatalf("fused decompress: %v", err)
					}
					SetFusedKernels(false)
					genericDec, err := Decompress(fused.Bytes)
					restore()
					if err != nil {
						t.Fatalf("generic decompress: %v", err)
					}
					for i := range fusedDec.Data {
						if fusedDec.Data[i] != genericDec.Data[i] &&
							!(math.IsNaN(fusedDec.Data[i]) && math.IsNaN(genericDec.Data[i])) {
							t.Fatalf("decode paths differ at %d: %g vs %g",
								i, fusedDec.Data[i], genericDec.Data[i])
						}
					}
					if err := VerifyErrorBound(f, fusedDec, m.mode, m.eb); err != nil {
						t.Fatalf("error bound violated: %v", err)
					}
				})
			}
		}
	}
}

// TestEmptyFieldRejectedOnBothPaths covers the n=0 edge: an empty field
// must error identically whichever kernel gate is active (the check runs
// before either path is chosen).
func TestEmptyFieldRejectedOnBothPaths(t *testing.T) {
	opts := Options{Predictor: predictor.Lorenzo, Mode: ABS, ErrorBound: 1e-3}
	for _, fused := range []bool{true, false} {
		restore := SetFusedKernels(fused)
		if _, err := Compress(nil, opts); err == nil {
			t.Errorf("fused=%v: nil field accepted", fused)
		}
		if _, err := Compress(&grid.Field{}, opts); err == nil {
			t.Errorf("fused=%v: empty field accepted", fused)
		}
		restore()
	}
}

// TestFusedKernelFallback pins the dispatch table: shapes and predictors
// without a fused kernel must report false so Compress takes the generic
// walk (regression, 4-D Lorenzo), and fused pairs must report true.
func TestFusedKernelFallback(t *testing.T) {
	k := func() *encodeKernel { return &encodeKernel{} }
	cases := []struct {
		kind predictor.Kind
		dims []int
		want bool
	}{
		{predictor.Lorenzo, []int{8}, true},
		{predictor.Lorenzo, []int{4, 4}, true},
		{predictor.Lorenzo, []int{4, 4, 4}, true},
		{predictor.Lorenzo, []int{2, 2, 2, 2}, false},
		{predictor.Lorenzo2, []int{8}, true},
		{predictor.Lorenzo2, []int{4, 4}, false},
		{predictor.Regression, []int{4, 4}, false},
	}
	for _, tc := range cases {
		kk := k()
		n := 1
		for _, d := range tc.dims {
			n *= d
		}
		kk.work = make([]float64, n)
		kk.syms = make([]uint32, n)
		kk.counts = make([]int64, 4)
		kk.twoEB = 2
		kk.eb = 1
		kk.radF = 1
		kk.radius = 1
		kk.resSym = 3
		if got := fusedCompress(tc.kind, tc.dims, kk); got != tc.want {
			t.Errorf("fusedCompress(%s, %v) = %v, want %v", tc.kind, tc.dims, got, tc.want)
		}
	}
}

// TestRegressionStillRoundTrips covers the fallback path end to end: the
// regression predictor (no fused kernel, aux side channel) must round-trip
// through the rewritten Compress/Decompress.
func TestRegressionStillRoundTrips(t *testing.T) {
	f := kernelField(t, 24, 24)
	opts := Options{Predictor: predictor.Regression, Mode: ABS, ErrorBound: 1e-3}
	res, err := Compress(f, opts)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decompress(res.Bytes)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyErrorBound(f, back, ABS, opts.ErrorBound); err != nil {
		t.Fatal(err)
	}
}

// TestArenaReuseIsClean runs many mixed compressions back to back so pooled
// arenas are reused across different bounds and sizes — from nearly every
// code in range to nearly every value stored exactly — so any stale
// counts/touched/LUT state would corrupt a later container.
func TestArenaReuseIsClean(t *testing.T) {
	fields := []*grid.Field{
		kernelField(t, 31),
		kernelField(t, 13, 11, 7),
		kernelField(t, 64, 64),
	}
	bounds := []float64{1e-3, 1e-9, 1e-6}
	for round := 0; round < 3; round++ {
		for _, f := range fields {
			for _, eb := range bounds {
				opts := Options{Predictor: predictor.Lorenzo, Mode: ABS, ErrorBound: eb}
				res, err := Compress(f, opts)
				if err != nil {
					t.Fatal(err)
				}
				back, err := Decompress(res.Bytes)
				if err != nil {
					t.Fatal(err)
				}
				if err := VerifyErrorBound(f, back, ABS, opts.ErrorBound); err != nil {
					t.Fatalf("eb %g round %d: %v", eb, round, err)
				}
			}
		}
	}
}
