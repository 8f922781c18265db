package datagen

import (
	"math"
	"testing"

	"rqm/internal/grid"
	"rqm/internal/stats"
)

func TestSpectralFieldRangeAndSmoothness(t *testing.T) {
	f := SpectralField("x", grid.Float32, []int{32, 32}, 3.0, -5, 5, 1)
	lo, hi := f.ValueRange()
	if math.Abs(lo+5) > 1e-9 || math.Abs(hi-5) > 1e-9 {
		t.Fatalf("range = [%v, %v], want [-5, 5]", lo, hi)
	}
	// Smoothness: mean |neighbor difference| must be far below the range for
	// slope 3 (a smooth field).
	var sum float64
	var n int
	for i := 0; i < 32; i++ {
		for j := 1; j < 32; j++ {
			sum += math.Abs(f.At(i, j) - f.At(i, j-1))
			n++
		}
	}
	if avg := sum / float64(n); avg > 1.0 {
		t.Fatalf("slope-3 field too rough: mean step %v over range 10", avg)
	}
}

func TestSpectralFieldSlopeOrdersRoughness(t *testing.T) {
	rough := SpectralField("r", grid.Float32, []int{64, 64}, 0.5, -1, 1, 2)
	smooth := SpectralField("s", grid.Float32, []int{64, 64}, 3.5, -1, 1, 2)
	step := func(f *grid.Field) float64 {
		var s float64
		var n int
		for i := 0; i < 64; i++ {
			for j := 1; j < 64; j++ {
				s += math.Abs(f.At(i, j) - f.At(i, j-1))
				n++
			}
		}
		return s / float64(n)
	}
	if step(smooth) >= step(rough) {
		t.Fatalf("smooth field rougher than rough field: %v vs %v", step(smooth), step(rough))
	}
}

func TestSpectralFieldDeterministic(t *testing.T) {
	a := SpectralField("a", grid.Float32, []int{16, 16}, 2, 0, 1, 7)
	b := SpectralField("a", grid.Float32, []int{16, 16}, 2, 0, 1, 7)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("same seed produced different fields")
		}
	}
	c := SpectralField("a", grid.Float32, []int{16, 16}, 2, 0, 1, 8)
	same := true
	for i := range a.Data {
		if a.Data[i] != c.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical fields")
	}
}

func TestLogNormalHeavyTail(t *testing.T) {
	f := LogNormalField("d", grid.Float32, []int{24, 24, 24}, 2.2, 3.0, 3)
	_, _, lo, hi := stats.MeanVarMinMax(f.Data)
	if lo <= 0 {
		t.Fatalf("lognormal min = %v, want > 0", lo)
	}
	med := stats.Quantile(f.Data, 0.5)
	if hi/med < 10 {
		t.Fatalf("dynamic range max/median = %v, want heavy tail", hi/med)
	}
}

func TestBrownian1DIncrementsGaussian(t *testing.T) {
	f := Brownian1D("b", 50000, 0.5, 11)
	inc := make([]float64, f.Len()-1)
	for i := range inc {
		inc[i] = f.Data[i+1] - f.Data[i]
	}
	mean, variance, _, _ := stats.MeanVarMinMax(inc)
	if math.Abs(mean) > 0.02 {
		t.Fatalf("increment mean = %v", mean)
	}
	if std := math.Sqrt(variance); math.Abs(std-0.5) > 0.02 {
		t.Fatalf("increment std = %v, want 0.5", std)
	}
}

func TestParticlePositionsInBox(t *testing.T) {
	f := ParticlePositions1D("p", 20000, 128, 16, 5)
	lo, hi := f.ValueRange()
	if lo < 0 || hi > 128 {
		t.Fatalf("positions outside box: [%v, %v]", lo, hi)
	}
}

func TestParticleVelocitiesMixture(t *testing.T) {
	f := ParticleVelocities1D("v", 100000, 6)
	mean, variance, _, _ := stats.MeanVarMinMax(f.Data)
	// Mixture std: sqrt(0.8*200^2 + 0.2*1200^2) ≈ 565.
	if std := math.Sqrt(variance); std < 400 || std > 750 {
		t.Fatalf("velocity std = %v", std)
	}
	if math.Abs(mean) > 20 {
		t.Fatalf("velocity mean = %v", mean)
	}
}

func TestOrbital3DSmooth(t *testing.T) {
	f := Orbital3D("o", []int{12, 12, 20}, 4, 9)
	if _, _, lo, hi := stats.MeanVarMinMax(f.Data); hi == lo {
		t.Fatal("orbital field is constant")
	}
}

func TestPhotonPanelsPeaks(t *testing.T) {
	f := PhotonPanels4D("x", []int{2, 2, 24, 24}, 4)
	// Background pedestal ~30-40; peaks push max into the hundreds.
	if _, _, _, hi := stats.MeanVarMinMax(f.Data); hi < 150 {
		t.Fatalf("no bright peaks: max = %v", hi)
	}
	med := stats.Quantile(f.Data, 0.5)
	if med < 10 || med > 60 {
		t.Fatalf("pedestal median = %v", med)
	}
}

func TestWaveSnapshotsPropagate(t *testing.T) {
	snaps := WaveSnapshots("w", []int{16, 20, 20}, 60, 20, 13)
	if len(snaps) < 2 {
		t.Fatalf("snapshots = %d", len(snaps))
	}
	for i, s := range snaps {
		mean, _, lo, hi := stats.MeanVarMinMax(s.Data)
		if hi == lo {
			t.Fatalf("snapshot %d is all zeros", i)
		}
		if math.IsNaN(mean) || math.IsInf(hi, 0) {
			t.Fatalf("snapshot %d unstable: mean=%v max=%v", i, mean, hi)
		}
	}
	// Energy must spread: later snapshots have wider support.
	support := func(f *grid.Field) int {
		_, hi := f.ValueRange()
		thresh := hi * 1e-6
		n := 0
		for _, v := range f.Data {
			if math.Abs(v) > thresh {
				n++
			}
		}
		return n
	}
	if support(snaps[len(snaps)-1]) <= support(snaps[0]) {
		t.Fatal("wavefield did not spread over time")
	}
}

func TestGenerateAllDatasets(t *testing.T) {
	for _, name := range Names() {
		ds, err := Generate(name, 42, Tiny)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(ds.Fields) == 0 {
			t.Fatalf("%s: no fields", name)
		}
		if ds.TotalBytes() <= 0 {
			t.Fatalf("%s: TotalBytes = %d", name, ds.TotalBytes())
		}
		for _, f := range ds.Fields {
			if f.Len() == 0 {
				t.Fatalf("%s/%s: empty", name, f.Name)
			}
			for _, v := range f.Data[:min(1000, f.Len())] {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("%s/%s: non-finite value", name, f.Name)
				}
			}
		}
	}
}

func TestGenerateUnknown(t *testing.T) {
	if _, err := Generate("nope", 1, Tiny); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestGenerateField(t *testing.T) {
	f, err := GenerateField("cesm/TS", 1, Tiny)
	if err != nil {
		t.Fatal(err)
	}
	if f.Name != "cesm/TS" {
		t.Fatalf("field name = %q", f.Name)
	}
	first, err := GenerateField("cesm", 1, Tiny)
	if err != nil {
		t.Fatal(err)
	}
	if first.Name != "cesm/TS" {
		t.Fatalf("bare name gave %q", first.Name)
	}
	if _, err := GenerateField("cesm/NOPE", 1, Tiny); err == nil {
		t.Fatal("unknown field accepted")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
