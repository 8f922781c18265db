package lz77

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func rt(t *testing.T, src []byte) []byte {
	t.Helper()
	enc := Encode(src)
	dec, err := Decode(enc, len(src))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !bytes.Equal(dec, src) {
		t.Fatal("round trip mismatch")
	}
	return enc
}

func TestRoundTripBasic(t *testing.T) {
	rt(t, nil)
	rt(t, []byte("a"))
	rt(t, []byte("abcabcabcabcabcabc"))
	rt(t, bytes.Repeat([]byte{7}, 5000))
	rt(t, []byte("the quick brown fox jumps over the lazy dog"))
}

func TestRepetitiveCompresses(t *testing.T) {
	src := bytes.Repeat([]byte("0123456789abcdef"), 1000)
	enc := rt(t, src)
	if len(enc) > len(src)/4 {
		t.Fatalf("repetitive input barely compressed: %d -> %d", len(src), len(enc))
	}
}

func TestOverlappingMatch(t *testing.T) {
	// "aaaa..." forces overlapping copies (dist 1, long length).
	src := bytes.Repeat([]byte{'a'}, 300)
	enc := rt(t, src)
	if len(enc) >= len(src) {
		t.Fatalf("run of same byte did not compress: %d", len(enc))
	}
}

func TestRandomIncompressibleBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	src := make([]byte, 4096)
	rng.Read(src)
	enc := rt(t, src)
	// Worst case: 1 header byte per 128 literals.
	if len(enc) > len(src)+len(src)/64+16 {
		t.Fatalf("expansion too large: %d -> %d", len(src), len(enc))
	}
}

func TestDecodeCorrupted(t *testing.T) {
	if _, err := Decode([]byte{0x05}, 6); err == nil {
		t.Fatal("truncated literals accepted")
	}
	if _, err := Decode([]byte{0x80}, 4); err == nil {
		t.Fatal("truncated match accepted")
	}
	if _, err := Decode([]byte{0x80, 5, 0}, 4); err == nil {
		t.Fatal("distance beyond output accepted")
	}
	if _, err := Decode([]byte{0x00, 'a'}, 5); err == nil {
		t.Fatal("wrong dstLen accepted")
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64, kind uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(3000)
		src := make([]byte, n)
		switch kind % 3 {
		case 0: // random
			rng.Read(src)
		case 1: // low-entropy
			for i := range src {
				src[i] = byte(rng.Intn(3))
			}
		case 2: // structured repeats
			pat := make([]byte, rng.Intn(20)+1)
			rng.Read(pat)
			for i := range src {
				src[i] = pat[i%len(pat)]
			}
		}
		enc := Encode(src)
		dec, err := Decode(enc, len(src))
		return err == nil && bytes.Equal(dec, src)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncode1MB(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	src := make([]byte, 1<<20)
	for i := range src {
		if rng.Float64() < 0.8 {
			src[i] = 0
		} else {
			src[i] = byte(rng.Intn(16))
		}
	}
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Encode(src)
	}
}

// TestAppendEncodeDecodeInto pins the dst-style pair the residual layer
// codes planes with: AppendEncode leaves dst's prefix alone and appends
// exactly Encode's bytes — whatever an earlier, longer input left in the
// pooled matcher — and DecodeInto fills its buffer exactly or fails, never
// writing past it.
func TestAppendEncodeDecodeInto(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	long := make([]byte, 70000)
	for i := range long {
		long[i] = byte(rng.Intn(7))
	}
	Encode(long) // leaves stale chain links in the pooled matcher
	for _, n := range []int{0, 1, 300, 5000, 70000} {
		src := long[len(long)-n:]
		want := Encode(src)
		got := AppendEncode([]byte("prefix"), src)
		if !bytes.HasPrefix(got, []byte("prefix")) || !bytes.Equal(got[6:], want) {
			t.Fatalf("n=%d: AppendEncode differs from Encode", n)
		}
		out := make([]byte, n+8)
		for i := range out {
			out[i] = 0xee
		}
		if err := DecodeInto(out[:n], want); err != nil || !bytes.Equal(out[:n], src) {
			t.Fatalf("n=%d: DecodeInto: %v", n, err)
		}
		if !bytes.Equal(out[n:], bytes.Repeat([]byte{0xee}, 8)) {
			t.Fatalf("n=%d: DecodeInto wrote past its buffer", n)
		}
		if n == 0 {
			continue
		}
		if err := DecodeInto(out[:n-1], want); err == nil {
			t.Fatalf("n=%d: stream longer than the buffer decoded", n)
		}
		if err := DecodeInto(out[:n+1], want); err == nil {
			t.Fatalf("n=%d: stream shorter than the buffer decoded", n)
		}
	}
}
