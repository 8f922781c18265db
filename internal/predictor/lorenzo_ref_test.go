package predictor

import (
	"math"
	"math/bits"
	"testing"

	"rqm/internal/grid"
	"rqm/internal/stats"
)

// lorenzoPredictNDRef is the Lorenzo prediction as it was before the term
// table: the stencil rebuilt per point from its coordinates, summed in mask
// order. It is the reference the rank-4 walk and rank-4 sampling must match
// bit for bit.
func lorenzoPredictNDRef(work []float64, coord, st []int, rank, idx int) float64 {
	var pred float64
	for mask := 1; mask < 1<<rank; mask++ {
		off := idx
		ok := true
		for d := 0; d < rank; d++ {
			if mask&(1<<d) != 0 {
				if coord[d] == 0 {
					ok = false
					break
				}
				off -= st[d]
			}
		}
		if !ok {
			continue
		}
		if bits.OnesCount(uint(mask))%2 == 1 {
			pred += work[off]
		} else {
			pred -= work[off]
		}
	}
	return pred
}

// sampleErrorsRef is the Lorenzo sampling pass as it was before the term
// table, with the coordinates divided out of each sampled index. Its
// prediction is lorenzoPredictNDRef's at rank 4 and, at order 2 and ranks
// 1–3, the walk's own over the original values: those walks sum in their
// own order, which the sampler must take.
func sampleErrorsRef(t *testing.T, l lorenzoPredictor, f *grid.Field, rate float64, seed uint64) []float64 {
	t.Helper()
	n := f.Len()
	idxs := stats.SampleIndices(n, rate, seed)
	out := make([]float64, 0, len(idxs))
	dims := f.Dims
	rank := len(dims)
	st := grid.Strides(dims)
	coord := make([]int, rank)
	var walked []float64
	if l.order == 2 || rank < 4 {
		walked = make([]float64, n)
		if _, err := Encode(l.Kind(), dims, f.Data, emitFunc(func(idx int, pred float64) {
			walked[idx] = pred
		})); err != nil {
			t.Fatal(err)
		}
	}
	for _, idx := range idxs {
		if idx == 0 {
			continue
		}
		if walked != nil {
			out = append(out, walked[idx]-f.Data[idx])
			continue
		}
		rem := idx
		for d := rank - 1; d >= 0; d-- {
			coord[d] = rem % dims[d]
			rem /= dims[d]
		}
		out = append(out, lorenzoPredictNDRef(f.Data, coord, st, rank, idx)-f.Data[idx])
	}
	return out
}

// TestLorenzoSamplingMatchesReference pins SampleErrors (order 1 at ranks
// 1–4, order 2 at rank 1) and the rank-4 walk to the reference code: the
// same errors and predictions, bit for bit, over an (n, rate, seed) matrix.
func TestLorenzoSamplingMatchesReference(t *testing.T) {
	shapes := [][]int{{1}, {2}, {1000}, {4097}, {1, 7}, {37, 29}, {64, 3}, {3, 1, 5}, {11, 13, 17}, {24, 24, 24},
		{2, 3, 4, 5}, {6, 1, 7, 9}, {9, 10, 11, 12}}
	for _, dims := range shapes {
		n := totalLen(dims)
		vals := make([]float64, n)
		for i := range vals {
			x := float64(i)
			vals[i] = math.Sin(x/7) + 0.3*math.Cos(x/3) + 1e-3*x
		}
		f, err := grid.FromData("ref", grid.Float64, vals, dims...)
		if err != nil {
			t.Fatal(err)
		}
		preds := []lorenzoPredictor{{order: 1}}
		if len(dims) == 1 {
			preds = append(preds, lorenzoPredictor{order: 2})
		}
		for _, p := range preds {
			for _, rate := range []float64{0.001, 0.01, 0.1, 0.5, 1} {
				for _, seed := range []uint64{1, 42, 0x5eed} {
					got, want := p.SampleErrors(f, rate, seed), sampleErrorsRef(t, p, f, rate, seed)
					if len(got) != len(want) {
						t.Fatalf("%v order %d rate %g seed %d: %d errors, reference %d", dims, p.order, rate, seed, len(got), len(want))
					}
					for i := range want {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("%v order %d rate %g seed %d: error %d is %v, reference %v",
								dims, p.order, rate, seed, i, got[i], want[i])
						}
					}
				}
			}
		}

		// The rank-4 walk: every index's prediction against the reference
		// stencil.
		if len(dims) != 4 {
			continue
		}
		st := grid.Strides(dims)
		coord := make([]int, len(dims))
		idx := 0
		walkLorenzo4D(dims, vals, emitFunc(func(i int, pred float64) {
			if i != idx {
				t.Fatalf("%v: walk emitted index %d, want %d", dims, i, idx)
			}
			if want := lorenzoPredictNDRef(vals, coord, st, len(dims), i); math.Float64bits(pred) != math.Float64bits(want) {
				t.Fatalf("%v: walk predicts %v at %d, reference %v", dims, pred, i, want)
			}
			idx++
			for d := len(dims) - 1; d >= 0; d-- {
				if coord[d]++; coord[d] < dims[d] {
					break
				}
				coord[d] = 0
			}
		}))
		if idx != n {
			t.Fatalf("%v: walk visited %d of %d", dims, idx, n)
		}
	}
}
