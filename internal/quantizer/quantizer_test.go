package quantizer

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 0); err == nil {
		t.Fatal("eb=0 accepted")
	}
	if _, err := New(-1, 0); err == nil {
		t.Fatal("eb<0 accepted")
	}
	if _, err := New(math.Inf(1), 0); err == nil {
		t.Fatal("eb=Inf accepted")
	}
	if _, err := New(1, -5); err == nil {
		t.Fatal("negative radius accepted")
	}
	q, err := New(0.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if q.Radius() != DefaultRadius {
		t.Fatalf("default radius = %d", q.Radius())
	}
	if q.eb != 0.5 || q.twoEB != 1 {
		t.Fatalf("eb = %v, 2eb = %v", q.eb, q.twoEB)
	}
}

func TestQuantizeExactness(t *testing.T) {
	q, _ := New(0.1, 0)
	cases := []struct{ value, pred float64 }{
		{1.0, 1.0}, {1.05, 1.0}, {1.1, 1.0}, {0.85, 1.0}, {3.14159, 2.5},
		{-7.7, -7.5}, {0, 0.05},
	}
	for _, c := range cases {
		code, recon, ok := q.Quantize(c.value, c.pred)
		if !ok {
			t.Fatalf("Quantize(%v, %v) not ok", c.value, c.pred)
		}
		if math.Abs(c.value-recon) > 0.1+1e-15 {
			t.Fatalf("bound violated: value %v recon %v code %d", c.value, recon, code)
		}
	}
}

func TestQuantizeZeroCodeForSmallErrors(t *testing.T) {
	q, _ := New(1.0, 0)
	code, recon, ok := q.Quantize(5.4, 5.0)
	if !ok || code != 0 || recon != 5.0 {
		t.Fatalf("code=%d recon=%v ok=%v", code, recon, ok)
	}
}

func TestQuantizeOutOfRange(t *testing.T) {
	q, _ := New(1e-6, 4)
	_, recon, ok := q.Quantize(100, 0)
	if ok {
		t.Fatal("out-of-range diff quantized")
	}
	if recon != 100 {
		t.Fatalf("unpredictable recon = %v, want the original value", recon)
	}
}

func TestQuantizeNaNPrediction(t *testing.T) {
	q, _ := New(0.1, 0)
	if _, _, ok := q.Quantize(1, math.NaN()); ok {
		t.Fatal("NaN prediction quantized")
	}
}

// The decoder reconstructs pred + code·2eb; Quantize must hand back exactly
// that.
func TestReconstructInvertsQuantize(t *testing.T) {
	const eb = 0.25
	q, _ := New(eb, 0)
	code, recon, ok := q.Quantize(10.3, 9.0)
	if !ok {
		t.Fatal("not ok")
	}
	if got := 9.0 + float64(code)*(2*eb); got != recon {
		t.Fatalf("pred + code·2eb = %v, want %v", got, recon)
	}
}

// Property: for any finite value/pred within range, the reconstruction error
// is bounded by eb, and decoder reconstruction matches encoder reconstruction.
func TestQuickErrorBoundInvariant(t *testing.T) {
	const eb = 0.01
	q, _ := New(eb, 0)
	f := func(v, p float64) bool {
		v = math.Mod(v, 1e6)
		p = math.Mod(p, 1e6)
		if math.IsNaN(v) || math.IsNaN(p) {
			return true
		}
		code, recon, ok := q.Quantize(v, p)
		if !ok {
			return recon == v // unpredictable path must hand back the original
		}
		if math.Abs(v-recon) > eb {
			return false
		}
		return p+float64(code)*(2*eb) == recon
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestCodeFor(t *testing.T) {
	if c := CodeFor(0.05, 0.1); c != 0 {
		t.Fatalf("CodeFor(0.05, 0.1) = %d", c)
	}
	if c := CodeFor(0.21, 0.1); c != 1 {
		t.Fatalf("CodeFor(0.21, 0.1) = %d", c)
	}
	if c := CodeFor(-0.51, 0.1); c != -3 {
		t.Fatalf("CodeFor(-0.51, 0.1) = %d", c)
	}
	if c := CodeFor(1e300, 1e-12); c != math.MaxInt32 {
		t.Fatalf("huge diff = %d", c)
	}
	if c := CodeFor(-1e300, 1e-12); c != math.MinInt32 {
		t.Fatalf("huge negative diff = %d", c)
	}
	// A NaN quotient has no code; int32(NaN) would be MinInt32 on amd64 and
	// 0 — the central bin — on arm64.
	for _, q := range [][2]float64{{math.NaN(), 0.1}, {math.Inf(1), math.MaxFloat64}, {math.Inf(-1), math.Inf(1)}} {
		if c := CodeFor(q[0], q[1]); c != math.MinInt32 {
			t.Fatalf("CodeFor(%v, %v) = %d, want MinInt32", q[0], q[1], c)
		}
	}
}
