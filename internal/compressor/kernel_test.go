package compressor

import (
	"fmt"
	"math"
	"testing"

	"rqm/internal/grid"
	"rqm/internal/predictor"
	"rqm/internal/quantizer"
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

// quantizerEmitter is the reference for the compressor's emitters: it runs
// under the same predictor.Encode walk but quantizes through
// quantizer.Quantize itself, whose codes encodeKernel.Emit reproduces. It
// keeps the streams an encodeKernel keeps: symbols, exactly stored values,
// dense counts and first-seen symbol order.
type quantizerEmitter struct {
	q       *quantizer.Quantizer
	work    []float64
	unpred  int
	syms    []uint32
	exact   []float64
	counts  []int64
	touched []uint32
}

func (e *quantizerEmitter) Emit(idx int, pred float64) {
	sym := reservedSymbol(e.q.Radius())
	if code, recon, ok := e.q.Quantize(e.work[idx], pred); ok {
		e.work[idx] = recon
		sym = uint32(code + e.q.Radius())
	} else {
		e.unpred++
		e.exact = append(e.exact, e.work[idx])
	}
	if e.counts == nil {
		e.counts = make([]int64, reservedSymbol(e.q.Radius())+1)
	}
	if e.counts[sym] == 0 {
		e.touched = append(e.touched, sym)
	}
	e.counts[sym]++
	e.syms = append(e.syms, sym)
}

// quantizationDomain returns f's values as Compress quantizes them and the
// absolute bound it quantizes at, plus the map from a reconstruction back to
// the field's domain. PWREL needs a field without zeros.
func quantizationDomain(t *testing.T, f *grid.Field, mode ErrorMode, eb float64) (work []float64, absEB float64, back func(i int, w float64) float64) {
	t.Helper()
	work = append([]float64(nil), f.Data...)
	back = func(_ int, w float64) float64 { return w }
	switch mode {
	case ABS:
		return work, eb, back
	case REL:
		lo, hi := f.ValueRange()
		if absEB = eb * (hi - lo); absEB == 0 {
			absEB = eb
		}
		return work, absEB, back
	}
	for i, v := range work {
		if v == 0 {
			t.Fatal("PWREL reference needs a field without zeros")
		}
		work[i] = math.Log2(math.Abs(v))
	}
	return work, math.Log2(1 + eb), func(i int, w float64) float64 {
		if f.Data[i] < 0 {
			return -math.Exp2(w)
		}
		return math.Exp2(w)
	}
}

// TestFusedKernelsMatchGenericWalk checks the emitters that fuse quantization
// into the walk against the generic quantizer: for every predictor × shape
// × bound mode, the values Decompress returns must be bit-identical to the
// reconstruction of the same walk quantized by quantizer.Quantize, with the
// same count of exactly stored values, and must hold the bound pointwise.
func TestFusedKernelsMatchGenericWalk(t *testing.T) {
	for _, dims := range pinnedShapes {
		f := kernelField(t, dims...)
		for _, pk := range predictor.Kinds() {
			p, err := predictor.New(pk)
			if err != nil {
				t.Fatal(err)
			}
			if !p.Supports(len(dims)) {
				continue
			}
			for _, m := range pinnedBounds[:3] {
				name := fmt.Sprintf("%s/%v/%s", pk, dims, m.mode)
				t.Run(name, func(t *testing.T) {
					res, err := Compress(f, Options{Predictor: pk, Mode: m.mode, ErrorBound: m.eb})
					if err != nil {
						t.Fatal(err)
					}
					dec, err := Decompress(res.Bytes)
					if err != nil {
						t.Fatal(err)
					}
					work, absEB, back := quantizationDomain(t, f, m.mode, m.eb)
					q, err := quantizer.New(absEB, quantizer.DefaultRadius)
					if err != nil {
						t.Fatal(err)
					}
					ref := &quantizerEmitter{q: q, work: work}
					if _, err := predictor.Encode(pk, dims, work, ref); err != nil {
						t.Fatal(err)
					}
					if res.Stats.AbsEB != absEB || res.Stats.Unpredictable != ref.unpred {
						t.Fatalf("abs bound %g, %d stored exactly; reference %g, %d",
							res.Stats.AbsEB, res.Stats.Unpredictable, absEB, ref.unpred)
					}
					for i, w := range work {
						if want := back(i, w); math.Float64bits(dec.Data[i]) != math.Float64bits(want) {
							t.Fatalf("value %d decodes to %g, reference %g", i, dec.Data[i], want)
						}
					}
					if err := VerifyErrorBound(f, dec, m.mode, m.eb); err != nil {
						t.Fatalf("error bound violated: %v", err)
					}
				})
			}
		}
	}
}

// TestEmptyFieldRejected covers the n=0 edge: a nil or empty field is
// refused before any walk runs.
func TestEmptyFieldRejected(t *testing.T) {
	opts := Options{Predictor: predictor.Lorenzo, Mode: ABS, ErrorBound: 1e-3}
	if _, err := Compress(nil, opts); err == nil {
		t.Error("nil field accepted")
	}
	if _, err := Compress(&grid.Field{}, opts); err == nil {
		t.Error("empty field accepted")
	}
}

// TestRegressionStillRoundTrips covers the aux side channel end to end: the
// regression predictor's coefficients must round-trip through the container.
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
