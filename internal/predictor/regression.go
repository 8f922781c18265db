package predictor

import (
	"encoding/binary"
	"fmt"
	"math"

	"rqm/internal/grid"
	"rqm/internal/stats"
)

// RegressionBlockEdge is the block edge used by the regression predictor,
// matching SZ's 6x6(x6) blocks.
const RegressionBlockEdge = 6

// regressionPredictor fits an affine model b0 + Σ b_d·t_d per block (t_d is
// the local coordinate). Coefficients are rounded to float32 and carried as
// a side channel; both compression and decompression predict from the
// rounded coefficients, so the error bound is preserved regardless of the
// coefficient precision.
type regressionPredictor struct{}

func (regressionPredictor) Kind() Kind             { return Regression }
func (regressionPredictor) Supports(rank int) bool { return rank >= 1 && rank <= 4 }

// fitBlock computes least-squares affine coefficients for the block from
// `data`, rounded to float32 (the stored precision); the first rank+1 are
// used. On a full tensor grid the centered regressors are orthogonal, so
// each slope is cov(t_d, f)/var(t_d).
func fitBlock(st []int, b grid.Block, data []float64) (coef [5]float64) {
	rank := len(st)
	n := 1
	for _, s := range b.Size {
		n *= s
	}
	var meanT, varT, covTF [4]float64
	for d := 0; d < rank; d++ {
		m := float64(b.Size[d])
		meanT[d] = (m - 1) / 2
		varT[d] = (float64(m*m) - 1) / 12
	}
	var sumF float64
	w := b.Cells(st)
	for w.Next() {
		v := data[w.Flat]
		sumF += v
		for d, l := range w.Local() {
			covTF[d] += float64((float64(l) - meanT[d]) * v)
		}
	}
	meanF := sumF / float64(n)
	for d := 0; d < rank; d++ {
		if varT[d] > 0 {
			coef[d+1] = covTF[d] / (varT[d] * float64(n))
		}
	}
	c0 := meanF
	for d := 0; d < rank; d++ {
		c0 -= float64(coef[d+1] * meanT[d])
	}
	coef[0] = c0
	for i := range coef {
		coef[i] = float64(float32(coef[i]))
	}
	return coef
}

// regressionPredict is the affine prediction at a block's local coordinate.
func regressionPredict(coef []float64, local []int) float64 {
	pred := coef[0]
	for d := range local {
		pred += float64(coef[d+1] * float64(local[d]))
	}
	return pred
}

// encodeRegression fits each block on the original values, emits the
// block's samples against its float32-rounded coefficients, and returns the
// coefficients as the aux channel.
func encodeRegression[E Emitter](dims []int, work []float64, e E) []byte {
	st := grid.Strides(dims)
	bls := grid.Blocks(dims, RegressionBlockEdge)
	aux := make([]byte, 0, regressionAuxBytes(dims, bls))
	for _, b := range bls {
		coef := fitBlock(st, b, work)
		for _, c := range coef[:len(dims)+1] {
			aux = binary.LittleEndian.AppendUint32(aux, math.Float32bits(float32(c)))
		}
		w := b.Cells(st)
		for w.Next() {
			e.Emit(w.Flat, regressionPredict(coef[:], w.Local()))
		}
	}
	return aux
}

// decodeRegression replays encodeRegression from its aux channel.
func decodeRegression[E Emitter](dims []int, work []float64, aux []byte, e E) error {
	st := grid.Strides(dims)
	bls := grid.Blocks(dims, RegressionBlockEdge)
	rank := len(dims)
	if need := regressionAuxBytes(dims, bls); len(aux) != need {
		return fmt.Errorf("predictor: regression aux has %d bytes, want %d", len(aux), need)
	}
	var coef [5]float64
	for _, b := range bls {
		for i := range coef[:rank+1] {
			coef[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(aux)))
			aux = aux[4:]
		}
		w := b.Cells(st)
		for w.Next() {
			e.Emit(w.Flat, regressionPredict(coef[:], w.Local()))
		}
	}
	return nil
}

// AuxBitsPerValue reports the side-channel overhead of the regression
// predictor in bits per value for a field shape; the ratio-quality model
// adds it to the estimated bit-rate.
func AuxBitsPerValue(dims []int) float64 {
	total := totalLen(dims)
	if total == 0 {
		return 0
	}
	return float64(regressionAuxBytes(dims, grid.Blocks(dims, RegressionBlockEdge))*8) / float64(total)
}

// regressionAuxBytes is the size of the coefficient side channel: rank+1
// float32 coefficients per block.
func regressionAuxBytes(dims []int, bls []grid.Block) int {
	return len(bls) * (len(dims) + 1) * 4
}

// SampleErrors samples whole blocks (paper §III-C3): a fraction `rate` of
// blocks is selected, each is fitted on original values, and all residuals
// in selected blocks are collected.
func (p regressionPredictor) SampleErrors(f *grid.Field, rate float64, seed uint64) []float64 {
	st := f.Strides()
	bw := grid.WalkBlocks(f.Dims, RegressionBlockEdge)
	picked := stats.SampleIndices(bw.Count(), rate, seed)
	out := make([]float64, 0, sampleCap(f.Len(), rate))
	for _, bi := range picked {
		bw.Seek(bi)
		coef := fitBlock(st, bw.Block(), f.Data)
		w := bw.Block().Cells(st)
		for w.Next() {
			out = append(out, regressionPredict(coef[:], w.Local())-f.Data[w.Flat])
		}
	}
	return out
}
