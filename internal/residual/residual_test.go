package residual

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"rqm/internal/grid"
)

// smoothField synthesizes a predictable field plus its lossy reconstruction:
// recon deviates from orig by a bounded perturbation, the way a bounded
// quantizer does, so the XOR residual has quiet high bytes.
func smoothField(n int, bound float64) (orig, recon []float64) {
	orig = make([]float64, n)
	recon = make([]float64, n)
	for i := range orig {
		x := float64(i)
		orig[i] = math.Sin(x/41) + 0.3*math.Cos(x/7)
		recon[i] = orig[i] + bound*math.Sin(x/3)
	}
	return
}

func TestComputeApplyRoundTrip(t *testing.T) {
	for _, prec := range []grid.Precision{grid.Float32, grid.Float64} {
		orig, recon := smoothField(1000, 1e-3)
		res, err := Compute(orig, recon, prec)
		if err != nil {
			t.Fatal(err)
		}
		got := append([]float64(nil), recon...)
		if err := Apply(got, res, prec); err != nil {
			t.Fatal(err)
		}
		for i := range orig {
			want := orig[i]
			if prec == grid.Float32 {
				want = float64(float32(orig[i]))
			}
			if got[i] != want {
				t.Fatalf("prec %v: value %d: got %v, want %v", prec, i, got[i], want)
			}
		}
	}
}

func TestEncodeDecodeAllBackends(t *testing.T) {
	for _, name := range []string{"huffman", "ans", "lz77"} {
		for _, prec := range []grid.Precision{grid.Float32, grid.Float64} {
			c, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			orig, recon := smoothField(2000, 1e-4)
			blocks := []int{512, 512, 512, 464}
			var buf bytes.Buffer
			n, err := Encode(&buf, c, prec, orig, recon, blocks)
			if err != nil {
				t.Fatalf("%s/%v: %v", name, prec, err)
			}
			if n != int64(buf.Len()) {
				t.Fatalf("%s/%v: Encode reported %d bytes, wrote %d", name, prec, n, buf.Len())
			}

			r := bytes.NewReader(buf.Bytes())
			idx, err := LoadIndex(r)
			if err != nil {
				t.Fatalf("%s/%v: %v", name, prec, err)
			}
			if idx.Header.ElemCount != 2000 || len(idx.Blocks) != 4 {
				t.Fatalf("%s/%v: index %d elems in %d blocks", name, prec, idx.Header.ElemCount, len(idx.Blocks))
			}
			wantHash, err := OriginalHash(orig, prec)
			if err != nil {
				t.Fatal(err)
			}
			if idx.Header.OriginalHash != wantHash {
				t.Fatalf("%s/%v: header original hash differs", name, prec)
			}

			got := append([]float64(nil), recon...)
			start := 0
			for i, e := range idx.Blocks {
				raw, err := ReadBlock(r, idx.Header, e)
				if err != nil {
					t.Fatalf("%s/%v: block %d: %v", name, prec, i, err)
				}
				// ReadBlock yields XOR bytes for an XOR block; a ULP block
				// applies only against its reconstruction, through ApplyBlock.
				if e.Flags&FlagULP != 0 {
					err = ApplyBlock(r, idx.Header, e, got[start:start+e.Values], 0, e.Values)
				} else {
					err = Apply(got[start:start+e.Values], raw, prec)
				}
				if err != nil {
					t.Fatal(err)
				}
				start += e.Values
			}
			gotHash, err := OriginalHash(got, prec)
			if err != nil {
				t.Fatal(err)
			}
			if gotHash != wantHash {
				t.Fatalf("%s/%v: reconstructed payload hash differs from original", name, prec)
			}
		}
	}
}

// TestCompressionWin pins the point of the layer: on a smooth well-predicted
// field the coded residual lands well under the raw payload size.
func TestCompressionWin(t *testing.T) {
	orig, recon := smoothField(1<<15, 1e-7)
	c, err := ByName(DefaultBackend)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := Encode(&buf, c, grid.Float64, orig, recon, []int{1 << 15}); err != nil {
		t.Fatal(err)
	}
	raw := len(orig) * 8
	if buf.Len() >= raw*60/100 {
		t.Fatalf("residual %d bytes, want < 60%% of raw %d", buf.Len(), raw)
	}
}

// TestRawFallback forces incompressible residuals and checks the writer
// stores them raw instead of expanded.
func TestRawFallback(t *testing.T) {
	n := 512
	orig := make([]float64, n)
	recon := make([]float64, n)
	// Fully random finite bit patterns (one exponent bit cleared so no
	// NaN/Inf appears): the XOR residual is noise in every byte plane.
	var seed uint64
	next := func() uint64 { // splitmix64: no lane correlation, unlike an LCG
		seed += 0x9e3779b97f4a7c15
		z := seed
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := range orig {
		orig[i] = math.Float64frombits(next() &^ (1 << 62))
		recon[i] = math.Float64frombits(next() &^ (1 << 62))
	}
	c, _ := ByName("lz77")
	var buf bytes.Buffer
	if _, err := Encode(&buf, c, grid.Float64, orig, recon, []int{n}); err != nil {
		t.Fatal(err)
	}
	idx, err := LoadIndex(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if idx.Blocks[0].Flags&FlagRaw == 0 {
		t.Fatal("incompressible block was not stored raw")
	}
	raw, err := ReadBlock(bytes.NewReader(buf.Bytes()), idx.Header, idx.Blocks[0])
	if err != nil {
		t.Fatal(err)
	}
	got := append([]float64(nil), recon...)
	if err := Apply(got, raw, grid.Float64); err != nil {
		t.Fatal(err)
	}
	for i := range orig {
		if got[i] != orig[i] {
			t.Fatalf("raw block round trip: value %d differs", i)
		}
	}
}

func TestTypedErrors(t *testing.T) {
	orig, recon := smoothField(256, 1e-4)
	c, _ := ByName("ans")
	var buf bytes.Buffer
	if _, err := Encode(&buf, c, grid.Float64, orig, recon, []int{128, 128}); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	corrupt := func(mut func(b []byte)) error {
		b := append([]byte(nil), good...)
		mut(b)
		idx, err := LoadIndex(bytes.NewReader(b))
		if err != nil {
			return err
		}
		for _, e := range idx.Blocks {
			if _, err := ReadBlock(bytes.NewReader(b), idx.Header, e); err != nil {
				return err
			}
		}
		return nil
	}

	if err := corrupt(func(b []byte) { b[0] ^= 0xff }); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("magic flip: %v, want ErrBadMagic", err)
	}
	if err := corrupt(func(b []byte) { b[4] = 9 }); !errors.Is(err, ErrUnsupportedVersion) {
		t.Fatalf("version bump: %v, want ErrUnsupportedVersion", err)
	}
	if err := corrupt(func(b []byte) { b[5] = 0x7f }); !errors.Is(err, ErrUnknownBackend) {
		t.Fatalf("backend id: %v, want ErrUnknownBackend", err)
	}
	if err := corrupt(func(b []byte) { b[len(b)-1] ^= 0x01 }); err == nil ||
		(!errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrTruncated)) {
		t.Fatalf("payload flip: %v, want typed corruption", err)
	}
	// Truncation at every boundary class.
	for _, cut := range []int{HeaderSize - 1, HeaderSize + 5, len(good) - 1} {
		b := good[:cut]
		idx, err := LoadIndex(bytes.NewReader(b))
		if err == nil {
			for _, e := range idx.Blocks {
				if _, err = ReadBlock(bytes.NewReader(b), idx.Header, e); err != nil {
					break
				}
			}
		}
		if err == nil || (!errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt)) {
			t.Fatalf("truncation at %d: %v, want typed error", cut, err)
		}
	}
}

func TestBackendRegistry(t *testing.T) {
	if !Known("ans") || !Known("huffman") || !Known("lz77") || Known("zstd") {
		t.Fatal("registry membership wrong")
	}
	if _, err := ByName("zstd"); !errors.Is(err, ErrUnknownBackend) {
		t.Fatalf("ByName(zstd): %v, want ErrUnknownBackend", err)
	}
	if _, err := ByID(0); !errors.Is(err, ErrUnknownBackend) {
		t.Fatalf("ByID(0): %v, want ErrUnknownBackend", err)
	}
	for _, name := range []string{"huffman", "ans", "lz77"} {
		c, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		back, err := ByID(c.ID())
		if err != nil || back.Name() != name {
			t.Fatalf("ID round trip for %s: %v", name, err)
		}
	}
}
