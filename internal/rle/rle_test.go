package rle

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRoundTripBasic(t *testing.T) {
	cases := [][]byte{
		nil,
		{1, 2, 3},
		{0},
		{0, 0, 0, 0},
		{1, 0, 0, 2, 0, 3},
		bytes.Repeat([]byte{0}, 1000),
		append(bytes.Repeat([]byte{0}, 300), 0xFF),
	}
	for i, src := range cases {
		enc := Encode(src)
		dec, err := Decode(enc, len(src))
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !bytes.Equal(dec, src) {
			t.Fatalf("case %d: round trip mismatch", i)
		}
	}
}

func TestLongRunCompresses(t *testing.T) {
	src := bytes.Repeat([]byte{0}, 100000)
	enc := Encode(src)
	if len(enc) > 8 {
		t.Fatalf("100k zeros encoded to %d bytes", len(enc))
	}
}

func TestIncompressibleWorstCase(t *testing.T) {
	// Alternating single zeros double: worst case is bounded at 2x.
	src := make([]byte, 1000)
	for i := range src {
		if i%2 == 0 {
			src[i] = 1
		}
	}
	enc := Encode(src)
	if len(enc) > 2*len(src) {
		t.Fatalf("expansion beyond 2x: %d", len(enc))
	}
	dec, err := Decode(enc, len(src))
	if err != nil || !bytes.Equal(dec, src) {
		t.Fatal("worst case round trip failed")
	}
}

func TestDecodeCorrupted(t *testing.T) {
	if _, err := Decode([]byte{0}, 0); err == nil {
		t.Fatal("truncated run accepted")
	}
	// Run that exceeds maxLen must be rejected.
	enc := Encode(bytes.Repeat([]byte{0}, 100))
	if _, err := Decode(enc, 50); err == nil {
		t.Fatal("overlong run accepted")
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(src []byte) bool {
		enc := Encode(src)
		dec, err := Decode(enc, len(src))
		return err == nil && bytes.Equal(dec, src)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncodeZeroHeavy(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	src := make([]byte, 1<<20)
	for i := range src {
		if rng.Float64() > 0.9 {
			src[i] = byte(rng.Intn(256))
		}
	}
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Encode(src)
	}
}
