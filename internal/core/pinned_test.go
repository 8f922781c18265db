package core

import (
	"math"
	"testing"

	"rqm/internal/datagen"
	"rqm/internal/predictor"
)

// pinnedBits is the model's output on one fixed field as float64 bit
// patterns, captured at the last commit where C1, C2, θ2, the header size and
// the p0 anchors were still Options fields at their defaults. Per (predictor,
// correction) block: TotalBitRate, RLEGain, PSNR at three bounds, then
// ErrorBoundForBitRate at two targets.
var pinnedBits = []uint64{
	// lorenzo, correction on
	0x400d19a8d09cb616, 0x3ff0000000000000, 0x40465c3a8e5b9f74, 0x3ff65cc7c17eb06f, 0x3ff1333eb3765325, 0x403b3c565422b482, 0x3fe3adee303b422f, 0x40068ffb23460925, 0x403a539c6797719d, 0x401f790390f799a9, 0x4029b1cf60c0af11,
	// lorenzo, correction off
	0x400d19a8d09cb616, 0x3ff0000000000000, 0x40465c3a8e5b9f74, 0x3ff3bc10ec4d6586, 0x3ff3a7d3b9c32311, 0x403b3c565422b482, 0x3fe37d11f1c02e2d, 0x4006cdb929941f3b, 0x403a539c6797719d, 0x401c59162b66e499, 0x4028a63281e6420b,
	// interpolation, correction on
	0x400ce67567079d98, 0x3ff0000000000000, 0x404668011a08ec3f, 0x3ff69309d9554307, 0x3ff108328683ec0e, 0x403c21d55c2c0aee, 0x3fe5f1ccd3e18293, 0x400433f4f97945c9, 0x403afe02d60cd0d4, 0x401c8a59fa074433, 0x402a6140fa2049cb,
	// interpolation, correction off
	0x400ce67567079d98, 0x3ff0000000000000, 0x404668011a08ec3f, 0x3ff51d2120c78d25, 0x3ff246aa7607251b, 0x403c21d55c2c0aee, 0x3fe5b43087edd4c7, 0x40046aad78fef1c2, 0x403afe02d60cd0d4, 0x401c73e15567a352, 0x40299554c262c408,
}

// TestConstantsPinned holds the method's constants to the values they had as
// option defaults. They have no other observable than the numbers they
// produce, so those are compared bit for bit.
func TestConstantsPinned(t *testing.T) {
	f, err := datagen.GenerateField("cesm/TS", 42, datagen.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	var got []uint64
	for _, kind := range []predictor.Kind{predictor.Lorenzo, predictor.Interpolation} {
		for _, off := range []bool{false, true} {
			p, err := NewProfile(f, kind, Options{SampleRate: 0.3, Seed: 7, UseLossless: true, DisableCorrection: off})
			if err != nil {
				t.Fatal(err)
			}
			for _, rel := range []float64{1e-2, 1e-1, 1.5e-1} {
				est := p.EstimateAt(rel * p.Range)
				got = append(got, math.Float64bits(est.TotalBitRate), math.Float64bits(est.RLEGain), math.Float64bits(est.PSNR))
			}
			for _, target := range []float64{1.5, 1.2} {
				eb, err := p.ErrorBoundForBitRate(target)
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, math.Float64bits(eb))
			}
		}
	}
	if len(got) != len(pinnedBits) {
		t.Fatalf("run produced %d values, %d are pinned", len(got), len(pinnedBits))
	}
	for i := range got {
		if got[i] != pinnedBits[i] {
			t.Errorf("value %d: %v (%#x), pinned %v (%#x)", i,
				math.Float64frombits(got[i]), got[i], math.Float64frombits(pinnedBits[i]), pinnedBits[i])
		}
	}
}
