package bitio

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWriteBitsWidths(t *testing.T) {
	w := NewWriter(16)
	vals := []struct {
		v     uint64
		width uint
	}{
		{0x1, 1}, {0x3, 2}, {0x7F, 7}, {0xABC, 12}, {0xDEADBEEF, 32},
		{0x1FFFFFFFFFFFFF, 53}, {0, 5}, {0x15, 5},
	}
	var bits uint64
	for _, v := range vals {
		w.WriteBits(v.v, v.width)
		bits += uint64(v.width)
	}
	if w.Bits() != bits {
		t.Fatalf("Bits() = %d, want %d", w.Bits(), bits)
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

// writeBitsLoop is the per-symbol loop WriteCodes replaces: it stops where
// WriteCodes does and returns the same index.
func writeBitsLoop(w *Writer, syms []uint32, stride int, lut []uint64) int {
	i := 0
	for ; i < len(syms); i += stride {
		if int64(syms[i]) >= int64(len(lut)) {
			break
		}
		e := lut[syms[i]]
		w.WriteBits(e>>8, uint(e&0xff))
	}
	return i
}

// checkWriteCodes runs WriteCodes and writeBitsLoop from a writer holding
// the same pending bits and requires the same stop index, Bytes and Bits.
func checkWriteCodes(t *testing.T, pending uint, syms []uint32, stride int, lut []uint64) {
	t.Helper()
	packed, looped := NewWriter(0), NewWriter(0)
	packed.WriteBits(0x5a, pending)
	looped.WriteBits(0x5a, pending)
	pi, li := packed.WriteCodes(syms, stride, lut), writeBitsLoop(looped, syms, stride, lut)
	if pi != li || packed.Bits() != looped.Bits() {
		t.Fatalf("pending %d stride %d: WriteCodes stops at %d after %d bits, WriteBits at %d after %d",
			pending, stride, pi, packed.Bits(), li, looped.Bits())
	}
	if a, b := packed.Bytes(), looped.Bytes(); !bytes.Equal(a, b) {
		t.Fatalf("pending %d stride %d: WriteCodes %x, WriteBits %x", pending, stride, a, b)
	}
}

// randomLUT returns m entries of code<<8 | length with lengths 1–32.
func randomLUT(rng *rand.Rand, m int) []uint64 {
	lut := make([]uint64, m)
	for i := range lut {
		l := uint64(rng.Intn(32) + 1)
		lut[i] = (rng.Uint64()&(1<<l-1))<<8 | l
	}
	return lut
}

// TestWriteCodesMatchesWriteBits holds the packer to the WriteBits loop: the
// same stream, bit count and stop index from every pending-bit start, for an
// empty input, full-width codes, and a symbol outside the LUT first, in the
// middle and last — then for random LUTs, symbols and strides.
func TestWriteCodesMatchesWriteBits(t *testing.T) {
	lut := []uint64{0x1<<8 | 1, 0xffffffff<<8 | 32, 0x2a<<8 | 7, 0x0<<8 | 3, 0x12345<<8 | 17}
	out := uint32(len(lut))
	rows := [][]uint32{
		nil,
		{1, 1, 1, 1, 1},
		{0, 1, 2, 3, 4, 4, 3, 2, 1, 0, 1, 1},
		{out, 1, 2, 3},
		{1, 2, out + 7, 3, 4},
		{1, 2, 3, 4, out},
	}
	for _, syms := range rows {
		for pending := uint(0); pending < 8; pending++ {
			for _, stride := range []int{1, 2, 3} {
				checkWriteCodes(t, pending, syms, stride, lut)
			}
		}
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		lut := randomLUT(rng, rng.Intn(64)+1)
		syms := make([]uint32, rng.Intn(300))
		for i := range syms {
			syms[i] = uint32(rng.Intn(len(lut)))
			if rng.Intn(100) == 0 { // outside the LUT
				syms[i] = uint32(len(lut) + rng.Intn(3))
			}
		}
		checkWriteCodes(t, uint(rng.Intn(8)), syms, rng.Intn(5)+1, lut)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
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
