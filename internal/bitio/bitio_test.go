package bitio

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWriteReadSingleBits(t *testing.T) {
	w := NewWriter(0)
	pattern := []uint{1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1}
	for _, b := range pattern {
		w.WriteBit(b)
	}
	if got, want := w.Bits(), uint64(len(pattern)); got != want {
		t.Fatalf("Bits() = %d, want %d", got, want)
	}
	r := NewReader(w.Bytes())
	for i, want := range pattern {
		got, err := r.ReadBit()
		if err != nil {
			t.Fatalf("ReadBit %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("bit %d = %d, want %d", i, got, want)
		}
	}
}

func TestWriteBitsWidths(t *testing.T) {
	w := NewWriter(16)
	vals := []struct {
		v     uint64
		width uint
	}{
		{0x1, 1}, {0x3, 2}, {0x7F, 7}, {0xABC, 12}, {0xDEADBEEF, 32},
		{0x1FFFFFFFFFFFFF, 53}, {0, 5}, {0x15, 5},
	}
	for _, v := range vals {
		w.WriteBits(v.v, v.width)
	}
	r := NewReader(w.Bytes())
	for i, v := range vals {
		got, err := r.ReadBits(v.width)
		if err != nil {
			t.Fatalf("ReadBits %d: %v", i, err)
		}
		if got != v.v&((1<<v.width)-1) {
			t.Fatalf("value %d = %#x, want %#x", i, got, v.v)
		}
	}
}

func TestWriteUint64RoundTrip(t *testing.T) {
	w := NewWriter(0)
	vals := []uint64{0, 1, 0xFFFFFFFFFFFFFFFF, 0x0123456789ABCDEF, 1 << 63}
	for _, v := range vals {
		w.WriteUint64(v)
	}
	r := NewReader(w.Bytes())
	for i, want := range vals {
		got, err := r.ReadUint64()
		if err != nil {
			t.Fatalf("ReadUint64 %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("uint64 %d = %#x, want %#x", i, got, want)
		}
	}
}

func TestReadPastEnd(t *testing.T) {
	w := NewWriter(0)
	w.WriteBits(0x5, 3)
	r := NewReader(w.Bytes())
	if _, err := r.ReadBits(3); err != nil {
		t.Fatalf("ReadBits(3): %v", err)
	}
	// 5 bits of padding remain in the final byte; then EOF.
	if _, err := r.ReadBits(6); err != ErrUnexpectedEOF {
		t.Fatalf("expected ErrUnexpectedEOF, got %v", err)
	}
}

// A bulk decoder consumes through Window(); the reader must carry on from
// where it stopped, across the word-refill / bytewise-tail boundary, and the
// window must read as zero padding once the stream is exhausted.
func TestWindowSharedWithReader(t *testing.T) {
	w := NewWriter(0)
	for i := 0; i < 40; i++ {
		w.WriteBits(uint64(i), 7)
	}
	r := NewReader(w.Bytes()) // 280 bits in 35 bytes
	for i := 0; i < 40; i++ {
		if i%3 == 0 {
			v, err := r.ReadBits(7)
			if err != nil || v != uint64(i) {
				t.Fatalf("ReadBits %d = %d, %v", i, v, err)
			}
		} else {
			win := r.Window()
			if win.N < 7 {
				win.Refill()
			}
			if v := win.Bits >> 57; v != uint64(i) {
				t.Fatalf("window value %d = %d", i, v)
			}
			win.Bits <<= 7
			win.N -= 7
		}
		if got := r.BitsRead(); got != uint64(7*(i+1)) {
			t.Fatalf("BitsRead after %d values = %d", i+1, got)
		}
	}
	win := r.Window()
	win.Refill()
	if win.N != 0 || win.Bits != 0 || win.Pos != 35 {
		t.Fatalf("exhausted window = %+v, want empty at byte 35", *win)
	}
	if _, err := r.ReadBits(1); err != ErrUnexpectedEOF {
		t.Fatalf("read past end: %v", err)
	}
}

func TestResetReuse(t *testing.T) {
	w := NewWriter(0)
	w.WriteBits(0xFF, 8)
	_ = w.Bytes()
	w.Reset()
	if w.Bits() != 0 {
		t.Fatalf("Bits after Reset = %d", w.Bits())
	}
	w.WriteBits(0xA, 4)
	b := w.Bytes()
	if len(b) != 1 || b[0] != 0xA0 {
		t.Fatalf("after reset got % x", b)
	}
}

func TestBitsReadAccounting(t *testing.T) {
	w := NewWriter(0)
	w.WriteBits(0xABCD, 16)
	r := NewReader(w.Bytes())
	if _, err := r.ReadBits(5); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadBits(11); err != nil {
		t.Fatal(err)
	}
	if r.BitsRead() != 16 {
		t.Fatalf("BitsRead = %d, want 16", r.BitsRead())
	}
}

// Property: any sequence of (value, width) writes reads back identically.
func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n)%64 + 1
		widths := make([]uint, count)
		vals := make([]uint64, count)
		w := NewWriter(0)
		for i := 0; i < count; i++ {
			widths[i] = uint(rng.Intn(57) + 1)
			vals[i] = rng.Uint64() & ((1 << widths[i]) - 1)
			w.WriteBits(vals[i], widths[i])
		}
		r := NewReader(w.Bytes())
		for i := 0; i < count; i++ {
			got, err := r.ReadBits(widths[i])
			if err != nil || got != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkWriteBits(b *testing.B) {
	w := NewWriter(1 << 20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%100000 == 0 {
			w.Reset()
		}
		w.WriteBits(uint64(i), 13)
	}
}
