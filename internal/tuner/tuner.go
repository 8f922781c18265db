// Package tuner implements the paper's three use-cases on top of the
// ratio-quality model (§IV): best-fit predictor selection, memory
// compression with a target footprint, and in-situ per-partition error-bound
// optimization — plus the trial-and-error baselines the paper compares
// against (the "traditional" offline approach and the in-situ TAE approach).
//
// Every use-case operates on the codec.Codec interface, so it works
// identically for any registered backend: profiles come from Codec.Profile,
// compression runs go through codec.Compress, and cross-backend selection
// (SelectCodec) ranks all registered codecs at a quality target with one
// call.
package tuner

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"rqm/internal/codec"
	"rqm/internal/compressor"
	"rqm/internal/core"
	"rqm/internal/grid"
	"rqm/internal/predictor"
	"rqm/internal/quality"
)

// Choice records one predictor's modeled performance at the probe point.
type Choice struct {
	// Kind is the candidate predictor.
	Kind predictor.Kind
	// Profile is its sampling profile (reusable for later estimates).
	Profile *core.Profile
	// Estimate is the model output at the probed error bound.
	Estimate core.Estimate
}

// SelectPredictor profiles each candidate once and returns the predictor
// with the best modeled trade-off at the given absolute error bound: the
// one with the highest estimated PSNR per bit, which reduces to the lowest
// bit-rate when quality estimates tie (use-case §IV-A). All candidates'
// choices are returned for inspection, best first.
func SelectPredictor(f *grid.Field, kinds []predictor.Kind, absEB float64, opts core.Options) ([]Choice, error) {
	if len(kinds) == 0 {
		return nil, errors.New("tuner: no candidate predictors")
	}
	choices := make([]Choice, 0, len(kinds))
	for _, k := range kinds {
		p, err := core.NewProfile(f, k, opts)
		if err != nil {
			return nil, fmt.Errorf("tuner: profiling %s: %w", k, err)
		}
		choices = append(choices, Choice{Kind: k, Profile: p, Estimate: p.EstimateAt(absEB)})
	}
	// Order by modeled quality-per-bit: primary key PSNR at equal rate is
	// not directly comparable across predictors (same eb ⇒ same PSNR model
	// up to central-bin effects), so the paper ranks by rate at the bound
	// and by quality where rates tie.
	sortChoices(choices)
	return choices, nil
}

func sortChoices(cs []Choice) {
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0 && better(cs[j], cs[j-1]); j-- {
			cs[j], cs[j-1] = cs[j-1], cs[j]
		}
	}
}

func better(a, b Choice) bool {
	if math.Abs(a.Estimate.TotalBitRate-b.Estimate.TotalBitRate) > 1e-9 {
		return a.Estimate.TotalBitRate < b.Estimate.TotalBitRate
	}
	return a.Estimate.PSNR > b.Estimate.PSNR
}

// RatePoint is one sample of a modeled rate-distortion curve.
type RatePoint struct {
	// AbsErrorBound is the bound used.
	AbsErrorBound float64
	// BitRate is the modeled total bits/value.
	BitRate float64
	// PSNR is the modeled quality.
	PSNR float64
}

// RateDistortion evaluates a profile across a log-spaced sweep of error
// bounds (relative to the value range), from relLo to relHi inclusive.
func RateDistortion(p *core.Profile, relLo, relHi float64, points int) []RatePoint {
	if points < 2 {
		points = 2
	}
	out := make([]RatePoint, points)
	for i := 0; i < points; i++ {
		t := float64(i) / float64(points-1)
		rel := relLo * math.Pow(relHi/relLo, t)
		eb := rel * p.Range
		est := p.EstimateAt(eb)
		out[i] = RatePoint{AbsErrorBound: eb, BitRate: est.TotalBitRate, PSNR: est.PSNR}
	}
	return out
}

// SwitchPoint locates the bit-rate below which candidate b's modeled PSNR
// exceeds candidate a's (the paper's Fig. 10 predictor switch, ≈1.89 bits
// for RTM). Both profiles are swept over the same bit-rate grid; the
// crossover is interpolated. ok is false when one candidate dominates
// everywhere.
func SwitchPoint(a, b *core.Profile, bitLo, bitHi float64, points int) (bitRate float64, ok bool) {
	if points < 8 {
		points = 8
	}
	prevDelta := math.NaN()
	prevBits := 0.0
	for i := 0; i < points; i++ {
		t := float64(i) / float64(points-1)
		bits := bitLo * math.Pow(bitHi/bitLo, t)
		ea, errA := a.ErrorBoundForBitRate(bits)
		eb, errB := b.ErrorBoundForBitRate(bits)
		if errA != nil || errB != nil {
			continue
		}
		delta := b.EstimateAt(eb).PSNR - a.EstimateAt(ea).PSNR
		if !math.IsNaN(prevDelta) && (delta >= 0) != (prevDelta >= 0) {
			// Linear interpolation of the crossing in bit-rate.
			frac := prevDelta / (prevDelta - delta)
			return prevBits + frac*(bits-prevBits), true
		}
		prevDelta, prevBits = delta, bits
	}
	return 0, false
}

// MemoryPlan is the outcome of a budgeted compression (use-case §IV-B).
type MemoryPlan struct {
	// BudgetBytes is the assigned space.
	BudgetBytes int64
	// TargetBitRate is the planned bits/value after headroom.
	TargetBitRate float64
	// ErrorBound is the solved absolute bound.
	ErrorBound float64
	// Rounds counts compression attempts (1 unless the strict path had to
	// re-compress).
	Rounds int
	// Overflowed reports whether the final output still exceeds the budget
	// (possible only in non-strict mode).
	Overflowed bool
	// Result is the final sealed compression output.
	Result *codec.Result
}

// CompressToBudget compresses f with codec c so its sealed container fits
// budgetBytes. Following the paper, the plan targets a bit-rate `headroom`
// (default 0.2) below the budget to absorb model error; in strict mode, rare
// overflows trigger re-compression with a tightened target until the output
// fits (or rounds run out, which returns an error). The profile p must come
// from the same codec (c.Profile).
func CompressToBudget(f *grid.Field, p *core.Profile, c codec.Codec,
	budgetBytes int64, headroom float64, strict bool, copts codec.Options) (*MemoryPlan, error) {
	if budgetBytes <= 0 {
		return nil, errors.New("tuner: budget must be positive")
	}
	if headroom <= 0 || headroom >= 1 {
		headroom = 0.2
	}
	plan := &MemoryPlan{BudgetBytes: budgetBytes}
	target := float64(budgetBytes) * 8 / float64(f.Len()) * (1 - headroom)
	const maxRounds = 5
	for round := 1; round <= maxRounds; round++ {
		plan.Rounds = round
		plan.TargetBitRate = target
		eb, err := p.ErrorBoundForRatio(float64(p.OrigBits) / target)
		if err != nil {
			return nil, err
		}
		plan.ErrorBound = eb
		copts.Mode = compressor.ABS
		copts.ErrorBound = eb
		res, err := codec.Compress(c, f, copts)
		if err != nil {
			return nil, err
		}
		plan.Result = res
		if res.Stats.CompressedBytes <= budgetBytes {
			plan.Overflowed = false
			return plan, nil
		}
		plan.Overflowed = true
		if !strict {
			return plan, nil
		}
		// Tighten proportionally to the observed overshoot.
		target *= float64(budgetBytes) / float64(res.Stats.CompressedBytes) * 0.95
	}
	return plan, fmt.Errorf("tuner: could not fit %d bytes after %d rounds", budgetBytes, plan.Rounds)
}

// PartitionAllocation is the per-partition outcome of in-situ optimization.
type PartitionAllocation struct {
	// ErrorBound is the absolute bound assigned to the partition.
	ErrorBound float64
	// Estimate is the model output at that bound.
	Estimate core.Estimate
}

// ebGrid builds the per-partition candidate error bounds (log-spaced).
func ebGrid(p *core.Profile, points int) []float64 {
	lo := p.BaseErrorBound()
	hi := p.Range
	if hi <= lo {
		hi = lo * 10
	}
	out := make([]float64, points)
	for i := range out {
		t := float64(i) / float64(points-1)
		out[i] = lo * math.Pow(hi/lo, t)
	}
	return out
}

// OptimizePartitionsForPSNR assigns each partition an error bound so the
// size-weighted aggregate PSNR meets target while minimizing total bits
// (use-case §IV-C). It solves the separable Lagrangian min Σ w(B + λσ²) and
// bisects λ until the aggregate error variance matches the target variance.
func OptimizePartitionsForPSNR(profiles []*core.Profile, targetPSNR float64) ([]PartitionAllocation, error) {
	if len(profiles) == 0 {
		return nil, errors.New("tuner: no partitions")
	}
	// The PSNR of the concatenated data uses the global range; aggregate MSE
	// must satisfy range²/MSE >= 10^(PSNR/10).
	globalRange := 0.0
	for _, p := range profiles {
		if p.Range > globalRange {
			globalRange = p.Range
		}
	}
	if globalRange <= 0 {
		return nil, errors.New("tuner: degenerate partitions")
	}
	targetVar := globalRange * globalRange / math.Pow(10, targetPSNR/10)

	const gridPts = 160
	grids := make([][]float64, len(profiles))
	ests := make([][]core.Estimate, len(profiles))
	for i, p := range profiles {
		grids[i] = ebGrid(p, gridPts)
		ests[i] = p.Curve(grids[i])
	}
	idxs := make([]int, len(profiles))
	allocFor := func(lambda float64) []int {
		out := make([]int, len(profiles))
		for i := range profiles {
			bestCost := math.Inf(1)
			for j, est := range ests[i] {
				cost := est.TotalBitRate + lambda*est.ErrVar
				if cost < bestCost {
					bestCost = cost
					out[i] = j
				}
			}
		}
		return out
	}
	varOf := func(sel []int) float64 {
		var v, n float64
		for i, p := range profiles {
			v += float64(p.N) * ests[i][sel[i]].ErrVar
			n += float64(p.N)
		}
		return v / n
	}
	// Bisect λ: larger λ penalizes error variance more → lower aggregate
	// variance. Find the smallest λ meeting the target.
	loL, hiL := 0.0, 1.0
	for iter := 0; iter < 60; iter++ {
		if varOf(allocFor(hiL)) <= targetVar {
			break
		}
		hiL *= 8
	}
	if idxs = allocFor(hiL); varOf(idxs) > targetVar {
		// Even the tightest grid cannot reach the target: return tightest.
		return materialize(grids, ests, idxs), nil
	}
	for iter := 0; iter < 60; iter++ {
		mid := (loL + hiL) / 2
		if varOf(allocFor(mid)) <= targetVar {
			hiL = mid
		} else {
			loL = mid
		}
	}
	idxs = allocFor(hiL)
	// Greedy polish: spend any remaining variance slack by loosening the
	// partition with the best bits-saved-per-variance-added step, undoing
	// the grid quantization of the Lagrangian.
	for pass := 0; pass < gridPts*len(profiles); pass++ {
		best := -1
		bestGain := 0.0
		cur := varOf(idxs)
		for i := range profiles {
			j := idxs[i]
			if j+1 >= gridPts {
				continue
			}
			dv := float64(profiles[i].N) * (ests[i][j+1].ErrVar - ests[i][j].ErrVar)
			var n float64
			for _, p := range profiles {
				n += float64(p.N)
			}
			if cur+dv/n > targetVar {
				continue
			}
			gain := ests[i][j].TotalBitRate - ests[i][j+1].TotalBitRate
			if gain > bestGain {
				bestGain = gain
				best = i
			}
		}
		if best < 0 {
			break
		}
		idxs[best]++
	}
	return materialize(grids, ests, idxs), nil
}

// materialize converts grid indices into PartitionAllocations.
func materialize(grids [][]float64, ests [][]core.Estimate, idxs []int) []PartitionAllocation {
	out := make([]PartitionAllocation, len(idxs))
	for i, j := range idxs {
		out[i] = PartitionAllocation{ErrorBound: grids[i][j], Estimate: ests[i][j]}
	}
	return out
}

// AggregateOf is the size-weighted mean error variance and mean bit-rate of
// an allocation.
func AggregateOf(profiles []*core.Profile, allocs []PartitionAllocation) (errVar, bits float64) {
	var n float64
	for i, p := range profiles {
		w := float64(p.N)
		errVar += w * allocs[i].Estimate.ErrVar
		bits += w * allocs[i].Estimate.TotalBitRate
		n += w
	}
	return errVar / n, bits / n
}

// TAEOutcome reports a trial-and-error baseline run.
type TAEOutcome struct {
	// ErrorBound is the selected bound.
	ErrorBound float64
	// Trials is the number of full compress(+decompress+analyze) runs.
	Trials int
	// Elapsed is the total optimization wall time.
	Elapsed time.Duration
	// PSNR is the measured quality at the selected bound (NaN if the
	// criterion was ratio-only).
	PSNR float64
}

// TAESelectErrorBound is the paper's baseline: compress, decompress, and
// measure each candidate bound with codec c, then pick the largest bound
// whose measured PSNR still meets the target. Every candidate costs a full
// pipeline run.
func TAESelectErrorBound(f *grid.Field, c codec.Codec, copts codec.Options,
	candidates []float64, targetPSNR float64) (*TAEOutcome, error) {
	if len(candidates) == 0 {
		return nil, errors.New("tuner: no candidate bounds")
	}
	start := time.Now()
	out := &TAEOutcome{ErrorBound: math.NaN(), PSNR: math.NaN()}
	for _, eb := range candidates {
		out.Trials++
		copts.Mode = compressor.ABS
		copts.ErrorBound = eb
		res, err := codec.Compress(c, f, copts)
		if err != nil {
			return nil, err
		}
		dec, err := codec.Decompress(res.Bytes)
		if err != nil {
			return nil, err
		}
		psnr, err := quality.PSNR(f, dec)
		if err != nil {
			return nil, err
		}
		if psnr >= targetPSNR && (math.IsNaN(out.ErrorBound) || eb > out.ErrorBound) {
			out.ErrorBound = eb
			out.PSNR = psnr
		}
	}
	out.Elapsed = time.Since(start)
	if math.IsNaN(out.ErrorBound) {
		return out, errors.New("tuner: no candidate met the PSNR target")
	}
	return out, nil
}

// CodecChoice records one codec's modeled performance at a quality target.
type CodecChoice struct {
	// Codec is the candidate backend.
	Codec codec.Codec
	// Profile is its sampling profile (reusable for later estimates).
	Profile *core.Profile
	// ErrorBound is the solved absolute bound meeting the target.
	ErrorBound float64
	// Estimate is the model output at that bound.
	Estimate core.Estimate
}

// SelectCodec ranks codecs by modeled compression at a PSNR target: each
// candidate is profiled once, the bound meeting the target is solved on its
// profile, and candidates are ordered by modeled bit-rate at that bound
// (best ratio first). Candidates that cannot profile the field or reach the
// target are skipped; an error is returned only when none qualifies. This is
// the cross-backend auto-selection the compressor-agnostic model enables:
// one sampling pass per codec, no trial compression.
func SelectCodec(f *grid.Field, codecs []codec.Codec, targetPSNR float64,
	copts codec.Options, mopts core.Options) ([]CodecChoice, error) {
	if len(codecs) == 0 {
		return nil, errors.New("tuner: no candidate codecs")
	}
	var choices []CodecChoice
	var lastErr error
	for _, c := range codecs {
		p, err := c.Profile(f, copts, mopts)
		if err != nil {
			lastErr = fmt.Errorf("tuner: profiling codec %s: %w", c.Name(), err)
			continue
		}
		eb, err := p.ErrorBoundForPSNR(targetPSNR)
		if err != nil {
			lastErr = fmt.Errorf("tuner: codec %s cannot reach %.1f dB: %w", c.Name(), targetPSNR, err)
			continue
		}
		choices = append(choices, CodecChoice{
			Codec: c, Profile: p, ErrorBound: eb, Estimate: p.EstimateAt(eb),
		})
	}
	if len(choices) == 0 {
		if lastErr == nil {
			lastErr = errors.New("tuner: no codec qualified")
		}
		return nil, lastErr
	}
	sort.SliceStable(choices, func(i, j int) bool {
		return choices[i].Estimate.TotalBitRate < choices[j].Estimate.TotalBitRate
	})
	return choices, nil
}
