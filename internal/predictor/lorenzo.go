package predictor

import (
	"math/bits"

	"rqm/internal/grid"
	"rqm/internal/stats"
)

// lorenzoPredictor implements the order-1 Lorenzo predictor for rank 1–4
// (inclusion–exclusion over the 2^rank−1 backward neighbors, missing
// neighbors contribute 0, as in SZ) and the order-2 variant for 1D streams.
type lorenzoPredictor struct {
	order int // 1 or 2
}

func (l lorenzoPredictor) Kind() Kind {
	if l.order == 2 {
		return Lorenzo2
	}
	return Lorenzo
}

func (l lorenzoPredictor) Supports(rank int) bool {
	if l.order == 2 {
		return rank == 1
	}
	return rank >= 1 && rank <= 4
}

func walkLorenzo1D[E Emitter](n int, work []float64, e E) {
	prev := 0.0
	for i := 0; i < n; i++ {
		e.Emit(i, prev)
		prev = work[i]
	}
}

func walkLorenzo2[E Emitter](n int, work []float64, e E) {
	for i := 0; i < n; i++ {
		var pred float64
		switch {
		case i >= 2:
			pred = 2*work[i-1] - work[i-2]
		case i == 1:
			pred = work[0]
		}
		e.Emit(i, pred)
	}
}

func walkLorenzo2D[E Emitter](dims []int, work []float64, e E) {
	rows, cols := dims[0], dims[1]
	for i := 0; i < rows; i++ {
		row := i * cols
		for j := 0; j < cols; j++ {
			var a, b, c float64 // west, north, northwest
			if j > 0 {
				a = work[row+j-1]
			}
			if i > 0 {
				b = work[row-cols+j]
				if j > 0 {
					c = work[row-cols+j-1]
				}
			}
			e.Emit(row+j, a+b-c)
		}
	}
}

func walkLorenzo3D[E Emitter](dims []int, work []float64, e E) {
	d0, d1, d2 := dims[0], dims[1], dims[2]
	s0 := d1 * d2
	for i := 0; i < d0; i++ {
		for j := 0; j < d1; j++ {
			base := i*s0 + j*d2
			for k := 0; k < d2; k++ {
				idx := base + k
				var f100, f010, f001, f110, f101, f011, f111 float64
				if i > 0 {
					f100 = work[idx-s0]
				}
				if j > 0 {
					f010 = work[idx-d2]
				}
				if k > 0 {
					f001 = work[idx-1]
				}
				if i > 0 && j > 0 {
					f110 = work[idx-s0-d2]
				}
				if i > 0 && k > 0 {
					f101 = work[idx-s0-1]
				}
				if j > 0 && k > 0 {
					f011 = work[idx-d2-1]
				}
				if i > 0 && j > 0 && k > 0 {
					f111 = work[idx-s0-d2-1]
				}
				e.Emit(idx, f100+f010+f001-f110-f101-f011+f111)
			}
		}
	}
}

// walkLorenzoND is the inclusion–exclusion Lorenzo walk over any rank
// (used for 4-D).
func walkLorenzoND[E Emitter](dims []int, work []float64, e E) {
	rank := len(dims)
	var off [15]int
	var add [15]bool
	terms := newLorenzoTerms(grid.Strides(dims), off[:], add[:])
	n := totalLen(dims)
	coord := make([]int, rank)
	for idx := 0; idx < n; idx++ {
		e.Emit(idx, terms.predict(work, idx, zeroMask(coord)))
		for d := rank - 1; d >= 0; d-- {
			coord[d]++
			if coord[d] < dims[d] {
				break
			}
			coord[d] = 0
		}
	}
}

// lorenzoTerms is the inclusion–exclusion stencil of the order-1 Lorenzo
// predictor at one field's strides: for each nonempty dimension mask, in
// mask order, the backward neighbour's distance from the point and whether
// it is added (an odd number of dimensions) or subtracted.
type lorenzoTerms struct {
	off []int
	add []bool
}

// newLorenzoTerms builds the stencil in off and add, zeroed and at least
// 2^len(st)−1 long (15 at rank 4), which may live on the caller's stack.
func newLorenzoTerms(st, off []int, add []bool) lorenzoTerms {
	n := 1<<len(st) - 1
	t := lorenzoTerms{off: off[:n], add: add[:n]}
	for mask := 1; mask <= n; mask++ {
		for d := range st {
			if mask&(1<<d) != 0 {
				t.off[mask-1] += st[d]
			}
		}
		t.add[mask-1] = bits.OnesCount(uint(mask))%2 == 1
	}
	return t
}

// zeroMask has bit d set where coord[d] is 0: the dimensions with no
// backward neighbour.
func zeroMask(coord []int) uint {
	var z uint
	for d, c := range coord {
		if c == 0 {
			z |= 1 << d
		}
	}
	return z
}

// predict is the Lorenzo prediction at idx from the terms whose dimensions
// all have a backward neighbour (none in zero), summed in mask order.
func (t lorenzoTerms) predict(work []float64, idx int, zero uint) float64 {
	var pred float64
	for m, off := range t.off {
		if uint(m+1)&zero != 0 {
			continue
		}
		if t.add[m] {
			pred += work[idx-off]
		} else {
			pred -= work[idx-off]
		}
	}
	return pred
}

// SampleErrors for Lorenzo: random point sampling; for each sampled point the
// Lorenzo prediction is computed from *original* neighbor values (paper
// §III-C1 and §III-C4). The very first point has no neighbors (prediction 0,
// a giant outlier the compressor effectively stores raw), so it is excluded
// from the error distribution. The sampled indices ascend, so each point's
// coordinates advance from the last one's, dividing only on a carry.
func (l lorenzoPredictor) SampleErrors(f *grid.Field, rate float64, seed uint64) []float64 {
	n := f.Len()
	idxs := stats.SampleIndices(n, rate, seed)
	out := make([]float64, 0, len(idxs))
	dims := f.Dims
	// The strides, the stencil and the coordinates live on the stack (rank
	// <= 4), so sampling allocates only its indices and its errors.
	var st, coords [4]int
	for d, acc := len(dims)-1, 1; d >= 0; d-- {
		st[d], acc = acc, acc*dims[d]
	}
	var off [15]int
	var add [15]bool
	terms := newLorenzoTerms(st[:len(dims)], off[:], add[:])
	coord := coords[:len(dims)]
	prev := 0
	for _, idx := range idxs {
		step := idx - prev
		prev = idx
		for d := len(dims) - 1; d >= 0 && step > 0; d-- {
			c := coord[d] + step
			if c < dims[d] {
				coord[d], step = c, 0
			} else {
				coord[d], step = c%dims[d], c/dims[d]
			}
		}
		if idx == 0 {
			continue
		}
		var pred float64
		if l.order == 2 {
			switch {
			case idx >= 2:
				pred = 2*f.Data[idx-1] - f.Data[idx-2]
			case idx == 1:
				pred = f.Data[0]
			}
		} else {
			pred = terms.predict(f.Data, idx, zeroMask(coord))
		}
		out = append(out, pred-f.Data[idx])
	}
	return out
}
