package partition

import (
	"errors"
	"math"
	"testing"

	"rqm/internal/codec"
	"rqm/internal/compressor"
	"rqm/internal/datagen"
	"rqm/internal/grid"
)

func testEnv(t *testing.T, dims []int, chunk int, policy *AdaptiveBound) Env {
	t.Helper()
	c, err := codec.ByID(codec.IDPrediction)
	if err != nil {
		t.Fatal(err)
	}
	return Env{
		Codec:       c,
		Copts:       codec.Options{Mode: compressor.ABS, ErrorBound: 1e-3},
		Policy:      policy,
		Prec:        grid.Float64,
		Dims:        dims,
		ChunkValues: chunk,
	}
}

func TestFixedSlabPlans(t *testing.T) {
	env := testEnv(t, nil, 1024, nil)
	window := make([]float64, 777)
	plan, err := FixedSlab{}.Partition(window, env)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Regions) != 1 || plan.Regions[0] != (Region{Off: 0, Len: 777}) {
		t.Fatalf("plan = %+v, want one region covering the window", plan)
	}
	if plan.Splits != 0 {
		t.Fatalf("fixed slab took %d splits", plan.Splits)
	}
	if err := plan.Validate(len(window)); err != nil {
		t.Fatal(err)
	}
	if got := (FixedSlab{}).WindowValues(env); got != 1024 {
		t.Fatalf("default window = %d, want the nominal chunk size", got)
	}
	empty, err := FixedSlab{}.Partition(nil, env)
	if err != nil || len(empty.Regions) != 0 {
		t.Fatalf("empty window plan = %+v, %v", empty, err)
	}
}

func TestPlanValidate(t *testing.T) {
	cases := []struct {
		name string
		plan Plan
		n    int
		ok   bool
	}{
		{"exact", Plan{Regions: []Region{{0, 3}, {3, 2}}}, 5, true},
		{"gap", Plan{Regions: []Region{{0, 2}, {3, 2}}}, 5, false},
		{"overlap", Plan{Regions: []Region{{0, 3}, {2, 3}}}, 5, false},
		{"short", Plan{Regions: []Region{{0, 3}}}, 5, false},
		{"empty-region", Plan{Regions: []Region{{0, 0}, {0, 5}}}, 5, false},
		{"empty-plan-empty-window", Plan{}, 0, true},
		{"empty-plan-nonempty-window", Plan{}, 5, false},
	}
	for _, tc := range cases {
		if err := tc.plan.Validate(tc.n); (err == nil) != tc.ok {
			t.Errorf("%s: Validate = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"", FixedSlabName, VarianceQuadtreeName} {
		p, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if name != "" && p.Name() != name {
			t.Fatalf("ByName(%q).Name() = %q", name, p.Name())
		}
		if !Known(name) {
			t.Fatalf("Known(%q) = false", name)
		}
	}
	if _, err := ByName("no-such-partitioner"); err == nil {
		t.Fatal("unknown name not rejected")
	}
	if Known("no-such-partitioner") {
		t.Fatal("Known accepted an unknown name")
	}
}

func TestQuadtreeNeedsPolicy(t *testing.T) {
	env := testEnv(t, nil, 1024, nil)
	if _, err := (VarianceQuadtree{}).Partition(make([]float64, 100), env); !errors.Is(err, ErrNeedPolicy) {
		t.Fatalf("err = %v, want ErrNeedPolicy", err)
	}
}

func TestQuadtreeConstantField(t *testing.T) {
	policy := &AdaptiveBound{TargetPSNR: 60}
	env := testEnv(t, nil, 1<<16, policy)
	window := make([]float64, 20000)
	for i := range window {
		window[i] = 3.25
	}
	plan, err := VarianceQuadtree{}.Partition(window, env)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Validate(len(window)); err != nil {
		t.Fatal(err)
	}
	if len(plan.Regions) != 1 || plan.Splits != 0 {
		t.Fatalf("constant field planned %d regions / %d splits, want 1 / 0",
			len(plan.Regions), plan.Splits)
	}
	for _, windowRange := range []float64{0, 1} {
		eb, p := env.SolveRegion(window, windowRange)
		if !(eb > 0) || p != nil {
			t.Fatalf("constant region solve (window range %v) = %v, %v; want a positive fallback and no profile",
				windowRange, eb, p)
		}
	}
}

func TestQuadtreeForcedSplits(t *testing.T) {
	policy := &AdaptiveBound{TargetPSNR: 60}
	env := testEnv(t, nil, 1000, policy) // MaxRegionValues defaults to ChunkValues
	window := make([]float64, 8192)
	for i := range window {
		window[i] = 1.0
	}
	plan, err := VarianceQuadtree{MinRegionValues: 256}.Partition(window, env)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Validate(len(window)); err != nil {
		t.Fatal(err)
	}
	for _, r := range plan.Regions {
		if r.Len > 1000 {
			t.Fatalf("region of %d values exceeds the %d cap", r.Len, 1000)
		}
	}
	if plan.Splits == 0 {
		t.Fatal("cap-forced splits not counted")
	}
}

// TestQuadtreeMixedField is the core behavioral contract: on a composite
// field whose outer halves are smooth and turbulent, the planner must (a)
// tile exactly, (b) split the field rather than emit one slab, and (c) the
// per-region solve must give the smooth half looser bounds than the
// turbulent half under a shared PSNR target.
func TestQuadtreeMixedField(t *testing.T) {
	dims := []int{32, 48, 48}
	f := datagen.MixedField("mixed", grid.Float64, dims, 7)
	policy := &AdaptiveBound{TargetPSNR: 65}
	env := testEnv(t, dims, 1<<18, policy)
	plan, err := VarianceQuadtree{}.Partition(f.Data, env)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Validate(len(f.Data)); err != nil {
		t.Fatal(err)
	}
	if len(plan.Regions) < 2 || plan.Splits == 0 {
		t.Fatalf("mixed field planned %d regions / %d splits, want a real split",
			len(plan.Regions), plan.Splits)
	}
	half := len(f.Data) / 2
	lo, hi := f.ValueRange()
	var smoothSum, roughSum float64
	var smoothN, roughN int
	for _, r := range plan.Regions {
		eb, p := env.SolveRegion(f.Data[r.Off:r.Off+r.Len], hi-lo)
		if !(eb > 0) || p == nil {
			t.Fatalf("region %+v solved to %v (profile %v), want a modeled bound", r, eb, p)
		}
		mid := r.Off + r.Len/2
		if mid < half {
			smoothSum += eb * float64(r.Len)
			smoothN += r.Len
		} else {
			roughSum += eb * float64(r.Len)
			roughN += r.Len
		}
	}
	if smoothN == 0 || roughN == 0 {
		t.Fatalf("regions did not cover both halves (smooth %d, rough %d)", smoothN, roughN)
	}
	smoothAvg := smoothSum / float64(smoothN)
	roughAvg := roughSum / float64(roughN)
	if !(smoothAvg > roughAvg) {
		t.Fatalf("smooth-half mean bound %v not looser than turbulent-half %v", smoothAvg, roughAvg)
	}
}

// TestQuadtreeDeterministic pins the reproducibility contract recompaction
// relies on: the same window and env must replan identically.
func TestQuadtreeDeterministic(t *testing.T) {
	dims := []int{16, 32, 32}
	f := datagen.MixedField("mixed", grid.Float64, dims, 11)
	env := testEnv(t, dims, 1<<18, &AdaptiveBound{TargetRatio: 10})
	a, err := VarianceQuadtree{}.Partition(f.Data, env)
	if err != nil {
		t.Fatal(err)
	}
	b, err := VarianceQuadtree{}.Partition(f.Data, env)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Regions) != len(b.Regions) || a.Splits != b.Splits {
		t.Fatalf("plans differ: %d/%d regions, %d/%d splits",
			len(a.Regions), len(b.Regions), a.Splits, b.Splits)
	}
	for i := range a.Regions {
		if a.Regions[i] != b.Regions[i] {
			t.Fatalf("region %d differs: %+v vs %+v", i, a.Regions[i], b.Regions[i])
		}
	}
}

func TestPlanDims(t *testing.T) {
	cases := []struct {
		dims []int
		n    int
		want []int
	}{
		{nil, 100, []int{100}},
		{[]int{10, 10}, 100, []int{10, 10}},
		{[]int{10, 10}, 99, []int{99}}, // mismatched shape plans as 1-D
		{[]int{4, 5, 5}, 100, []int{4, 5, 5}},
		{[]int{2, 3, 4, 5}, 120, []int{2, 3, 20}}, // rank 4 folds into rank 3
		{[]int{1, 10, 10}, 100, []int{10, 10}},    // leading singleton dropped
		{[]int{1, 1, 8}, 8, []int{8}},
		{[]int{1}, 1, []int{1}},
	}
	for _, tc := range cases {
		got := planDims(tc.dims, tc.n)
		if len(got) != len(tc.want) {
			t.Errorf("planDims(%v, %d) = %v, want %v", tc.dims, tc.n, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("planDims(%v, %d) = %v, want %v", tc.dims, tc.n, got, tc.want)
				break
			}
		}
	}
}

func TestQuadtreeValidateConfig(t *testing.T) {
	env := testEnv(t, nil, 1024, &AdaptiveBound{TargetPSNR: 60})
	if err := (VarianceQuadtree{SplitFactor: 0.5}).Validate(env); err == nil {
		t.Error("SplitFactor < 1 not rejected")
	}
	if err := (VarianceQuadtree{MinRegionValues: -1}).Validate(env); err == nil {
		t.Error("negative MinRegionValues not rejected")
	}
	if err := (VarianceQuadtree{}).Validate(env); err != nil {
		t.Errorf("zero value rejected: %v", err)
	}
	if math.IsNaN(DefaultSplitFactor) || DefaultSplitFactor < 1 {
		t.Error("bad DefaultSplitFactor")
	}
}

// TestSolveRegionRule pins the one per-region rule: a region that is its
// whole window solves at the raw target, a region of a wider window at
// T + 20·log₁₀(regionRange/windowRange), and the profile comes from at
// least minAdaptiveSamples samples however small the region.
func TestSolveRegionRule(t *testing.T) {
	const target = 60
	env := testEnv(t, nil, 1<<16, &AdaptiveBound{TargetPSNR: target})
	f := datagen.SpectralField("r", grid.Float64, []int{2048}, -1.6, -1, 1, 3)
	vals := f.Data
	lo, hi := f.ValueRange()

	raw, p := env.SolveRegion(vals, 0)
	if p == nil || len(p.Errors) < minAdaptiveSamples-1 {
		t.Fatalf("profile %v: want one built from the %d-sample floor", p, minAdaptiveSamples)
	}
	if eb, err := p.ErrorBoundForPSNR(target); err != nil || eb != raw {
		t.Fatalf("returned profile solves to %v (%v), the solve returned %v", eb, err, raw)
	}
	if own, _ := env.SolveRegion(vals, hi-lo); own != raw {
		t.Fatalf("window range = region range solved to %v, the raw target to %v", own, raw)
	}
	wide, p := env.SolveRegion(vals, 10*(hi-lo))
	leafTarget := target + 20*math.Log10((hi-lo)/(10*(hi-lo))) // about 40 dB
	if eb, _ := p.ErrorBoundForPSNR(leafTarget); eb != wide {
		t.Fatalf("a tenth of the window's range solved to %v, want the %v dB bound %v", wide, leafTarget, eb)
	}
	if !(wide > raw) {
		t.Fatalf("a quiet region's bound %v is not looser than the raw target's %v", wide, raw)
	}
}
