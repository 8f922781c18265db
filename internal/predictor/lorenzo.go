package predictor

import (
	"rqm/internal/grid"
	"rqm/internal/stats"
)

// lorenzoPredictor implements the order-1 Lorenzo predictor for rank 1–4
// (inclusion–exclusion over the 2^rank−1 backward neighbors, missing
// neighbors contribute 0, as in SZ) and the order-2 variant for 1D streams.
// Each rank and order has one prediction function, which both its walk and
// SampleErrors call.
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

// lorenzo1D is the order-1 Lorenzo prediction at i in 1-D: the previous
// value, 0 at i = 0.
func lorenzo1D(work []float64, i int) float64 {
	if i > 0 {
		return work[i-1]
	}
	return 0
}

func walkLorenzo1D[E Emitter](n int, work []float64, e E) {
	for i := 0; i < n; i++ {
		e.Emit(i, lorenzo1D(work, i))
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

func walkLorenzo2[E Emitter](n int, work []float64, e E) {
	for i := 0; i < n; i++ {
		e.Emit(i, lorenzo2At(work, i))
	}
}

// lorenzo2D is the order-1 Lorenzo prediction at idx of a 2-D field whose
// rows hold cols values: west + north − northwest, a missing neighbour
// counting 0. north and west say whether idx has a row above it and a
// column left of it.
func lorenzo2D(work []float64, idx, cols int, north, west bool) float64 {
	var a, b, c float64
	if west {
		a = work[idx-1]
	}
	if north {
		b = work[idx-cols]
		if west {
			c = work[idx-cols-1]
		}
	}
	return a + b - c
}

func walkLorenzo2D[E Emitter](dims []int, work []float64, e E) {
	rows, cols := dims[0], dims[1]
	for i := 0; i < rows; i++ {
		row := i * cols
		for j := 0; j < cols; j++ {
			e.Emit(row+j, lorenzo2D(work, row+j, cols, i > 0, j > 0))
		}
	}
}

// lorenzo3D is the order-1 Lorenzo prediction at idx of a 3-D field with
// strides s0 and s1 along its first two dimensions: the seven backward
// neighbours summed f100+f010+f001−f110−f101−f011+f111, a missing one
// counting 0 (digit d of fXYZ is 1 for a step back along dimension d). i,
// j and k say whether idx has a backward neighbour along dimensions 0, 1
// and 2.
func lorenzo3D(work []float64, idx, s0, s1 int, i, j, k bool) float64 {
	var f100, f010, f001, f110, f101, f011, f111 float64
	if k {
		f001 = work[idx-1]
	}
	if j {
		f010 = work[idx-s1]
		if k {
			f011 = work[idx-s1-1]
		}
	}
	if i {
		n := idx - s0
		f100 = work[n]
		if k {
			f101 = work[n-1]
		}
		if j {
			f110 = work[n-s1]
			if k {
				f111 = work[n-s1-1]
			}
		}
	}
	return f100 + f010 + f001 - f110 - f101 - f011 + f111
}

func walkLorenzo3D[E Emitter](dims []int, work []float64, e E) {
	d0, d1, d2 := dims[0], dims[1], dims[2]
	s0 := d1 * d2
	for i := 0; i < d0; i++ {
		for j := 0; j < d1; j++ {
			base := i*s0 + j*d2
			for k := 0; k < d2; k++ {
				e.Emit(base+k, lorenzo3D(work, base+k, s0, d2, i > 0, j > 0, k > 0))
			}
		}
	}
}

// lorenzoSigns is the sign of each term of the 4-D stencil, term i being
// the backward neighbour along the dimensions in mask i+1 (bit d is
// dimension d): +1 for an odd number of dimensions and −1 for an even.
var lorenzoSigns = [15]float64{1, 1, -1, 1, -1, -1, 1, 1, -1, -1, 1, -1, 1, 1, -1}

// lorenzoOffsets is the 4-D stencil at strides st: term i's distance back
// from the point.
func lorenzoOffsets(st [4]int) (off [15]int) {
	for i := range off {
		for d, s := range st {
			if (i+1)&(1<<d) != 0 {
				off[i] += s
			}
		}
	}
	return off
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

// lorenzo4D is the order-1 Lorenzo prediction at idx of a 4-D field with
// stencil off, summed from +0 in mask order with the terms that lack a
// backward neighbour (a dimension in zero) as 0. Multiplying by a sign is
// exact, so pred + sign·v rounds as pred ± v does, without a branch per
// term.
func lorenzo4D(work []float64, idx int, off *[15]int, zero uint) float64 {
	var pred float64
	for i, o := range off {
		var v float64
		if uint(i+1)&zero == 0 {
			v = work[idx-o]
		}
		pred += float64(lorenzoSigns[i] * v)
	}
	return pred
}

func walkLorenzo4D[E Emitter](dims []int, work []float64, e E) {
	off := lorenzoOffsets([4]int(grid.Strides(dims)))
	var coord [4]int
	for idx := range totalLen(dims) {
		e.Emit(idx, lorenzo4D(work, idx, &off, zeroMask(coord[:])))
		for d := 3; d >= 0; d-- {
			if coord[d]++; coord[d] < dims[d] {
				break
			}
			coord[d] = 0
		}
	}
}

// SampleErrors for Lorenzo: random point sampling; for each sampled point the
// Lorenzo prediction is computed from *original* neighbor values (paper
// §III-C1 and §III-C4) by the walk's own prediction function for the order
// and rank. The very first point has no neighbors (prediction 0, a giant
// outlier the compressor effectively stores raw), so it is excluded from
// the error distribution. The sampled indices ascend, so each point's
// coordinates advance from the last one's, dividing only on a carry.
func (l lorenzoPredictor) SampleErrors(f *grid.Field, rate float64, seed uint64) []float64 {
	work, dims := f.Data, f.Dims
	idxs := stats.SampleIndices(len(work), rate, seed)
	out := make([]float64, 0, len(idxs))
	// The strides, the stencil and the coordinates live on the stack (rank
	// <= 4), so sampling allocates only its indices and its errors.
	var st, coords [4]int
	for d, acc := len(dims)-1, 1; d >= 0; d-- {
		st[d], acc = acc, acc*dims[d]
	}
	var off [15]int
	if len(dims) == 4 {
		off = lorenzoOffsets(st)
	}
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
		switch {
		case l.order == 2:
			pred = lorenzo2At(work, idx)
		case len(dims) == 1:
			pred = lorenzo1D(work, idx)
		case len(dims) == 2:
			pred = lorenzo2D(work, idx, st[0], coord[0] > 0, coord[1] > 0)
		case len(dims) == 3:
			pred = lorenzo3D(work, idx, st[0], st[1], coord[0] > 0, coord[1] > 0, coord[2] > 0)
		default:
			pred = lorenzo4D(work, idx, &off, zeroMask(coord))
		}
		out = append(out, pred-work[idx])
	}
	return out
}
