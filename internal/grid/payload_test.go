package grid

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"runtime"
	"slices"
	"testing"
)

// allocated returns the bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func TestCursorBoundsEveryRead(t *testing.T) {
	c := NewCursor(binary.LittleEndian.AppendUint64(nil, math.Float64bits(-2.5)))
	if v := c.F64(); v != -2.5 || c.Err() != nil || c.Len() != 0 {
		t.Fatalf("F64 = %v, %v with %d bytes left", v, c.Err(), c.Len())
	}
	if v := c.U32(); v != 0 || !errors.Is(c.Err(), ErrTruncated) {
		t.Fatalf("U32 past the end = %d, %v", v, c.Err())
	}

	c = NewCursor([]byte{1, 2, 3, 4, 5, 6})
	if v := c.U16(); v != 0x0201 || c.Err() != nil || c.Len() != 4 {
		t.Fatalf("U16 = %#x, %v with %d bytes left", v, c.Err(), c.Len())
	}
	if v := c.U64(); v != 0 || !errors.Is(c.Err(), ErrTruncated) {
		t.Fatalf("U64 over 4 bytes = %d, %v: want 0, ErrTruncated", v, c.Err())
	}
	// The first failure sticks: later reads return zero values, even ones
	// the remaining bytes could satisfy.
	if b := c.Take(4); b != nil || !errors.Is(c.Err(), ErrTruncated) {
		t.Fatalf("read after a failure = %v, %v", b, c.Err())
	}

	// A blob declaring 2 GiB over ten bytes is refused without a copy.
	hostile := binary.LittleEndian.AppendUint32(nil, 1<<31)
	hostile = append(hostile, make([]byte, 10)...)
	var err error
	if grew := allocated(func() {
		c := NewCursor(hostile)
		c.Blob()
		err = c.Err()
	}); grew > 1<<10 {
		t.Fatalf("Blob allocated %d bytes before refusing", grew)
	}
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("2 GiB blob over 10 bytes: %v, want ErrTruncated", err)
	}

	// A blob is a subslice of the payload, capped so appends cannot reach
	// the bytes after it.
	payload := append(binary.LittleEndian.AppendUint32(nil, 2), 7, 8, 9)
	c = NewCursor(payload)
	if b := c.Blob(); c.Err() != nil || &b[0] != &payload[4] || cap(b) != 2 {
		t.Fatalf("Blob = %v (cap %d), %v: want a capped view of the payload", b, cap(b), c.Err())
	}
}

func TestCursorDims(t *testing.T) {
	shape := func(rank byte, dims ...uint64) []byte {
		b := []byte{rank}
		for _, d := range dims {
			b = binary.LittleEndian.AppendUint64(b, d)
		}
		return b
	}
	c := NewCursor(shape(3, 4, 5, 6))
	if dims, n := c.Dims(); c.Err() != nil || n != 120 || !slices.Equal(dims, []int{4, 5, 6}) {
		t.Fatalf("Dims = %v, %d, %v", dims, n, c.Err())
	}
	for name, bad := range map[string][]byte{
		"rank 0":        shape(0),
		"rank 5":        shape(5, 1, 1, 1, 1, 1),
		"zero dim":      shape(2, 3, 0),
		"dim over 2^32": shape(1, 1<<32+1),
		"overflow":      shape(3, 1<<32, 1<<32, 1<<32),
		"truncated":     shape(2, 3)[:5],
		"empty":         nil,
	} {
		c := NewCursor(bad)
		if dims, n := c.Dims(); c.Err() == nil || dims != nil || n != 0 {
			t.Errorf("%s: Dims = %v, %d, %v", name, dims, n, c.Err())
		}
	}
	c = NewCursor(shape(2, 3)[:5])
	if c.Dims(); !errors.Is(c.Err(), ErrTruncated) {
		t.Errorf("a shape cut short: %v, want ErrTruncated", c.Err())
	}
}

// rqmfHeader is a WriteTo header declaring dims with no samples after it.
func rqmfHeader(prec Precision, dims ...int) []byte {
	var buf bytes.Buffer
	if _, err := WriteHeader(&buf, prec, dims); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// TestReadFromSizesByBody: a header sizes nothing beyond MaxPrealloc values.
// A 32-byte body declaring 2^13×2^13 float32 values fails having allocated
// at most the cap, and one declaring 2^36 values fails instead of aborting
// the process on an allocation it cannot make.
func TestReadFromSizesByBody(t *testing.T) {
	for _, dims := range [][]int{{1 << 13, 1 << 13}, {1 << 18, 1 << 18}} {
		hdr := rqmfHeader(Float32, dims...)
		var err error
		grew := allocated(func() { _, err = ReadFrom(bytes.NewReader(hdr)) })
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("%d-byte body declaring %v: %v, want io.ErrUnexpectedEOF", len(hdr), dims, err)
		}
		if grew > 8*MaxPrealloc+1<<20 {
			t.Fatalf("%v: ReadFrom allocated %d bytes for a %d-byte body", dims, grew, len(hdr))
		}
	}
}

// TestReadFromBytesPerValue: an honest field parses at the 8 bytes per value
// its float64 samples need, whatever its storage precision.
func TestReadFromBytesPerValue(t *testing.T) {
	const n = 1 << 20
	for _, prec := range []Precision{Float32, Float64} {
		f := MustNew("honest", prec, 1<<10, 1<<10)
		for i := range f.Data {
			f.Data[i] = float64(float32(math.Sin(float64(i))))
		}
		var buf bytes.Buffer
		if _, err := f.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		var g *Field
		var err error
		grew := allocated(func() { g, err = ReadFrom(bytes.NewReader(buf.Bytes())) })
		if err != nil {
			t.Fatal(err)
		}
		if perValue := float64(grew) / n; perValue > 8.1 {
			t.Errorf("float%d: ReadFrom allocated %.2f B/value, want at most 8.1", prec, perValue)
		}
		for i := range f.Data {
			if g.Data[i] != f.Data[i] {
				t.Fatalf("float%d: value %d read back as %v, want %v", prec, i, g.Data[i], f.Data[i])
			}
		}
	}
}

// FuzzReadFrom: ReadFrom never panics; an accepted input is exactly its
// header and samples, and WriteTo reproduces those bytes (a signaling
// float32 NaN comes back quieted: widening to float64 sets the quiet bit).
// A shape larger than its body is refused.
func FuzzReadFrom(f *testing.F) {
	for _, prec := range []Precision{Float32, Float64} {
		for _, dims := range [][]int{{5}, {3, 4}, {2, 3, 2}, {2, 1, 3, 2}} {
			fld := MustNew("seed", prec, dims...)
			for i := range fld.Data {
				fld.Data[i] = float64(i) - 2.5
			}
			var buf bytes.Buffer
			if _, err := fld.WriteTo(&buf); err != nil {
				f.Fatal(err)
			}
			f.Add(buf.Bytes())
		}
	}
	f.Add(rqmfHeader(Float32, 1<<13, 1<<13))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		fld, err := ReadFrom(r)
		if err != nil {
			return
		}
		consumed := data[:len(data)-r.Len()]
		width := fld.Prec.Bits() / 8
		if want := 8*(2+fld.Rank()) + width*fld.Len(); len(consumed) != want {
			t.Fatalf("accepted %d bytes for a %v float%d field of %d bytes", len(consumed), fld.Dims, fld.Prec, want)
		}
		var out bytes.Buffer
		if _, err := fld.WriteTo(&out); err != nil {
			t.Fatal(err)
		}
		want := bytes.Clone(consumed)
		if fld.Prec == Float32 {
			for i := 8 * (2 + fld.Rank()); i < len(want); i += 4 {
				if w := binary.LittleEndian.Uint32(want[i:]); w&0x7f800000 == 0x7f800000 && w&0x7fffff != 0 {
					binary.LittleEndian.PutUint32(want[i:], w|0x400000)
				}
			}
		}
		if !bytes.Equal(out.Bytes(), want) {
			t.Fatalf("WriteTo(ReadFrom(x)) differs from the %d bytes read", len(consumed))
		}
	})
}
