package codec

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"rqm/internal/compressor"
	"rqm/internal/grid"
	"rqm/internal/predictor"
)

// signedField is testField with zeros and negative values mixed in, so the
// PWREL sign and zero bitmaps are not constant.
func signedField(t testing.TB) *grid.Field {
	t.Helper()
	f := testField(t)
	g := *f
	g.Data = append([]float64(nil), f.Data...)
	for i := range g.Data {
		switch {
		case i%7 == 0:
			g.Data[i] = 0
		case i%5 == 0:
			g.Data[i] = -g.Data[i]
		}
	}
	return &g
}

// poisoned returns a length-n slice of NaNs with spare capacity also NaN.
func poisoned(n int) []float64 {
	b := make([]float64, n+16)
	for i := range b {
		b[i] = math.NaN()
	}
	return b[:n]
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestDecodeIntoReusedBuffer: every codec decodes into a caller's buffer
// whatever it held before — NaNs here, as a recycled chunk buffer holds the
// last chunk's values — and gives the bits a fresh decode gives, aliasing
// the buffer when it fits and never touching it when it does not.
func TestDecodeIntoReusedBuffer(t *testing.T) {
	f := signedField(t)
	n := f.Len()
	for _, c := range All() {
		for _, kind := range predictor.Kinds() {
			for _, mode := range []compressor.ErrorMode{compressor.ABS, compressor.REL, compressor.PWREL} {
				for _, ll := range []compressor.LosslessKind{compressor.LosslessNone, compressor.LosslessRLE,
					compressor.LosslessLZ77, compressor.LosslessFlate} {
					if c.ID() == IDTransform && (kind != predictor.Lorenzo || ll != compressor.LosslessNone) {
						continue // the transform codec has no predictor or lossless stage to vary
					}
					if p, _ := predictor.New(kind); !p.Supports(f.Rank()) {
						continue
					}
					opts := Options{Mode: mode, ErrorBound: 1e-3, Predictor: kind, Lossless: ll}
					payload, err := c.Compress(f, opts)
					if c.ID() == IDTransform && mode == compressor.PWREL {
						continue // refused, see TestTransformCodecRejectsPWREL
					}
					if err != nil {
						t.Fatalf("%s %s %s %s: %v", c.Name(), kind, mode, ll, err)
					}
					want, err := c.Decompress(nil, payload)
					if err != nil {
						t.Fatal(err)
					}
					dst := poisoned(n)
					got, err := c.Decompress(dst, payload)
					if err != nil {
						t.Fatal(err)
					}
					if &got.Data[0] != &dst[0] || !sameBits(got.Data, want.Data) {
						t.Fatalf("%s %s %s %s: decode into a used buffer differs from a fresh one (aliased %v)",
							c.Name(), kind, mode, ll, &got.Data[0] == &dst[0])
					}
					small := poisoned(n - 1)[: n-1 : n-1]
					got, err = c.Decompress(small, payload)
					if err != nil || !sameBits(got.Data, want.Data) || !math.IsNaN(small[0]) {
						t.Fatalf("%s %s %s %s: a buffer too small must be left alone", c.Name(), kind, mode, ll)
					}
				}
			}
		}
	}
}

// TestDecodeChunkIntoStaysInItsSpan: a chunk decodes into dst[:c.Values]
// and nowhere past it — even when the record's value count lies and the
// payload holds more — so workers can decode neighbouring chunks into one
// destination.
func TestDecodeChunkIntoStaysInItsSpan(t *testing.T) {
	vals := chunkedTestValues(300)
	blob, entries := buildChunkedContainer(t, 300, [][]float64{vals})
	c, err := ReadChunkAt(bytes.NewReader(blob), entries[0])
	if err != nil {
		t.Fatal(err)
	}
	want, err := DecodeChunk(c)
	if err != nil {
		t.Fatal(err)
	}
	backing := poisoned(400)[:400]
	got, err := DecodeChunkInto(backing[:0], c)
	if err != nil || &got[0] != &backing[0] || !sameBits(got, want) {
		t.Fatalf("DecodeChunkInto: %v, aliased %v", err, err == nil && &got[0] == &backing[0])
	}
	for i, v := range backing[300:] {
		if !math.IsNaN(v) {
			t.Fatalf("DecodeChunkInto wrote past the chunk's span at %d", 300+i)
		}
	}

	lying := *c
	lying.Values = 200
	backing = poisoned(400)[:400]
	if _, err := DecodeChunkInto(backing, &lying); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("a record declaring 200 of 300 values decoded: %v", err)
	}
	for i, v := range backing[200:] {
		if !math.IsNaN(v) {
			t.Fatalf("a lying record's decode wrote past its declared span at %d", 200+i)
		}
	}
}
