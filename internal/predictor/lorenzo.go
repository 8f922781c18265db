package predictor

import (
	"math"
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
		e.Emit(i, lorenzo2At(work, i))
	}
}

// lorenzo2At is the order-2 Lorenzo prediction at i: the line through the
// two previous values, the previous value alone at i = 1, 0 at i = 0.
func lorenzo2At(work []float64, i int) float64 {
	switch {
	case i >= 2:
		return 2*work[i-1] - work[i-2]
	case i == 1:
		return work[0]
	}
	return 0
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
	terms := newLorenzoTerms(grid.Strides(dims))
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

// walkOrders lists, for ranks 1–3, the dimension masks in the order that
// rank's walk sums its neighbours: west, north, northwest in 2-D, and
// f100+f010+f001−f110−f101−f011+f111 in 3-D (bit d of a mask is dimension
// d). Rank 4 has no entry: walkLorenzoND is predict, in mask order.
var walkOrders = [4][]uint{1: {1}, 2: {2, 1, 3}, 3: {1, 2, 4, 3, 5, 6, 7}}

// lorenzoTerms is the inclusion–exclusion stencil of the order-1 Lorenzo
// predictor at one field's strides, in the order its walk sums: for each
// nonempty dimension mask, the backward neighbour's distance from the point
// and its sign, +1 for an odd number of dimensions and −1 for an even.
type lorenzoTerms struct {
	n    int
	mask [15]uint
	off  [15]int
	sign [15]float64
	// origin starts the sum. The walks at ranks 1–3 start from their first
	// term, which −0 + x reproduces for every x, −0 included; walkLorenzoND
	// starts from +0.
	origin float64
}

// newLorenzoTerms builds the stencil for strides st (rank 1–4).
func newLorenzoTerms(st []int) lorenzoTerms {
	t := lorenzoTerms{n: 1<<len(st) - 1}
	var order []uint
	if len(st) < 4 {
		order = walkOrders[len(st)]
		t.origin = math.Copysign(0, -1)
	}
	for i := range t.n {
		m := uint(i + 1)
		if order != nil {
			m = order[i]
		}
		t.mask[i] = m
		for d := range st {
			if m&(1<<d) != 0 {
				t.off[i] += st[d]
			}
		}
		t.sign[i] = 1
		if bits.OnesCount(m)%2 == 0 {
			t.sign[i] = -1
		}
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

// predict is the Lorenzo prediction at idx, summed in the stencil's order
// with the terms that lack a backward neighbour (a dimension in zero) as 0,
// as the walks sum them. Multiplying by a sign is exact, so pred + sign·v
// rounds as pred ± v does, without a branch per term.
func (t *lorenzoTerms) predict(work []float64, idx int, zero uint) float64 {
	pred := t.origin
	for i, m := range t.mask[:t.n] {
		var v float64
		if m&zero == 0 {
			v = work[idx-t.off[i]]
		}
		pred += t.sign[i] * v
	}
	return pred
}

// SampleErrors for Lorenzo: random point sampling; for each sampled point the
// Lorenzo prediction is computed from *original* neighbor values (paper
// §III-C1 and §III-C4) with the walk's arithmetic: lorenzo2At at order 2,
// the stencil in the walk's summation order at order 1. The very first
// point has no neighbors (prediction 0, a giant outlier the compressor
// effectively stores raw), so it is excluded from the error distribution.
// The sampled indices ascend, so each point's coordinates advance from the
// last one's, dividing only on a carry.
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
	terms := newLorenzoTerms(st[:len(dims)])
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
			pred = lorenzo2At(f.Data, idx)
		} else {
			pred = terms.predict(f.Data, idx, zeroMask(coord))
		}
		out = append(out, pred-f.Data[idx])
	}
	return out
}
