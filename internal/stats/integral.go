package stats

import (
	"fmt"
	"math"
	"sync"
)

// Integral is a summed-area table (integral image) over a 1-D, 2-D, or 3-D
// field: two prefix-sum tables (values and squared values) padded with a zero
// border, so the mean and variance of any axis-aligned sub-box come
// from a constant number of table lookups via inclusion–exclusion. Building
// is O(N), one pass per table, the two tables on two goroutines; every
// query after that is O(1), which is what makes recursive variance-guided
// partitioning affordable (each split decision touches a few table cells
// instead of rescanning the region).
//
// Boxes are half-open: lo[i] <= coordinate < hi[i] on every axis.
type Integral struct {
	dims    []int
	strides []int // strides of the padded (dims+1) tables
	sum     []float64
	sumsq   []float64
}

// NewIntegral builds the summed-area tables for data laid out row-major with
// the given shape. Rank must be 1, 2, or 3 and the shape must cover data
// exactly. The squares' table builds on a goroutine of its own while the
// caller builds the values'; NewIntegral returns once both are done. Every
// cell is the sum the one-goroutine recurrence gave, bit for bit.
func NewIntegral(data []float64, dims ...int) (*Integral, error) {
	if len(dims) < 1 || len(dims) > 3 {
		return nil, fmt.Errorf("stats: integral rank %d outside 1..3", len(dims))
	}
	n := 1
	for _, d := range dims {
		if d <= 0 {
			return nil, fmt.Errorf("stats: non-positive dimension %d", d)
		}
		n *= d
	}
	if n != len(data) {
		return nil, fmt.Errorf("stats: shape %v declares %d values, data has %d", dims, n, len(data))
	}
	// Pad every axis by one so the zero border absorbs the lo-1 lookups.
	t := &Integral{dims: append([]int(nil), dims...)}
	padded := 1
	t.strides = make([]int, len(dims))
	for i := len(dims) - 1; i >= 0; i-- {
		t.strides[i] = padded
		padded *= dims[i] + 1
	}
	t.sum = make([]float64, padded)
	t.sumsq = make([]float64, padded)

	var squares sync.WaitGroup
	squares.Add(1)
	go func() {
		defer squares.Done()
		prefixTable(t.sumsq, data, dims, true)
	}()
	prefixTable(t.sum, data, dims, false)
	squares.Wait()
	return t, nil
}

// prefixTable fills table, padded as NewIntegral lays it out, with the
// prefix sums of data over dims, or of data's squares. Each cell is
// ((row + up) + back) − diag: the running sum along its row, plus the cell
// above it and the cell behind it, minus the cell diagonal to both, the
// terms its rank lacks left out: a rank-1 table is its running sum and a
// rank-2 table row + up. Each rank has a loop of its own that walks a row
// of cells against the rows above and behind it. A square is summed as
// run += v * v, the form the serial build summed it in, so that a compiler
// that fuses multiply-adds fuses both alike.
func prefixTable(table, data []float64, dims []int, square bool) {
	d2 := dims[len(dims)-1]
	row := d2 + 1 // padded cells per row
	switch len(dims) {
	case 1:
		cur := table[1 : 1+d2]
		var run float64
		for k, v := range data {
			if square {
				run += v * v
			} else {
				run += v
			}
			cur[k] = run
		}
	case 2:
		for j := range dims[0] {
			in := data[j*d2 : (j+1)*d2]
			cur := table[(j+1)*row+1:][:len(in)]
			up := table[j*row+1:][:len(in)]
			var run float64
			for k, v := range in {
				if square {
					run += v * v
				} else {
					run += v
				}
				cur[k] = run + up[k]
			}
		}
	case 3:
		d1 := dims[1]
		plane := (d1 + 1) * row // padded cells per plane
		for i := range dims[0] {
			for j := range d1 {
				in := data[(i*d1+j)*d2 : (i*d1+j+1)*d2]
				base := (i+1)*plane + (j+1)*row + 1
				cur := table[base:][:len(in)]
				up := table[base-row:][:len(in)]
				back := table[base-plane:][:len(in)]
				diag := table[base-plane-row:][:len(in)]
				var run float64
				for k, v := range in {
					if square {
						run += v * v
					} else {
						run += v
					}
					cur[k] = run + up[k] + back[k] - diag[k]
				}
			}
		}
	}
}

// checkBox validates a half-open box against the table's shape.
func (t *Integral) checkBox(lo, hi []int) error {
	if len(lo) != len(t.dims) || len(hi) != len(t.dims) {
		return fmt.Errorf("stats: box rank %d/%d does not match table rank %d", len(lo), len(hi), len(t.dims))
	}
	for i := range t.dims {
		if lo[i] < 0 || hi[i] > t.dims[i] || lo[i] >= hi[i] {
			return fmt.Errorf("stats: box [%v, %v) outside shape %v", lo, hi, t.dims)
		}
	}
	return nil
}

// boxQuery evaluates one prefix table over a half-open box by
// inclusion–exclusion: 2^rank corner lookups with alternating signs.
func (t *Integral) boxQuery(table []float64, lo, hi []int) float64 {
	rank := len(t.dims)
	var total float64
	for mask := 0; mask < 1<<rank; mask++ {
		idx, sign := 0, 1.0
		for axis := 0; axis < rank; axis++ {
			if mask&(1<<axis) != 0 {
				idx += lo[axis] * t.strides[axis] // lo-1 in padded coordinates
				sign = -sign
			} else {
				idx += hi[axis] * t.strides[axis]
			}
		}
		total += sign * table[idx]
	}
	return total
}

// Count returns the number of elements inside the box.
func (t *Integral) Count(lo, hi []int) int {
	n := 1
	for i := range lo {
		n *= hi[i] - lo[i]
	}
	return n
}

// MeanVar returns the mean and population variance of the values inside the
// half-open box [lo, hi). Variance is clamped at zero: the sum-of-squares
// identity var = E[x²] − E[x]² can go slightly negative under float64
// cancellation on near-constant data.
func (t *Integral) MeanVar(lo, hi []int) (mean, variance float64, err error) {
	if err := t.checkBox(lo, hi); err != nil {
		return 0, 0, err
	}
	n := float64(t.Count(lo, hi))
	s := t.boxQuery(t.sum, lo, hi)
	sq := t.boxQuery(t.sumsq, lo, hi)
	mean = s / n
	variance = sq/n - mean*mean
	if variance < 0 || math.IsNaN(variance) {
		variance = 0
	}
	return mean, variance, nil
}
