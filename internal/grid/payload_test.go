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
// the process on an allocation it cannot make. ReadInto keeps the bound
// whatever destination it is handed: one too short for the shape does not
// count toward it.
func TestReadFromSizesByBody(t *testing.T) {
	short := make([]float64, 1<<10)
	for _, dims := range [][]int{{1 << 13, 1 << 13}, {1 << 18, 1 << 18}} {
		hdr := rqmfHeader(Float32, dims...)
		for _, dst := range [][]float64{nil, short} {
			var err error
			grew := allocated(func() { _, err = ReadInto(bytes.NewReader(hdr), dst) })
			if !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("%d-byte body declaring %v, dst cap %d: %v, want io.ErrUnexpectedEOF", len(hdr), dims, cap(dst), err)
			}
			if grew > 8*MaxPrealloc+1<<20 {
				t.Fatalf("%v, dst cap %d: ReadInto allocated %d bytes for a %d-byte body", dims, cap(dst), grew, len(hdr))
			}
		}
	}
}

// TestReadIntoReusesDestination: a destination whose capacity holds the
// shape takes every value, so a warm parse allocates only its header and
// sample buffer; every value comes from the body, none from dst.
func TestReadIntoReusesDestination(t *testing.T) {
	f := MustNew("honest", Float32, 1<<10, 1<<8)
	for i := range f.Data {
		f.Data[i] = float64(float32(math.Cos(float64(i))))
	}
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, f.Len()+5)
	for i := range dst {
		dst[i] = math.NaN()
	}
	var g *Field
	var err error
	grew := allocated(func() { g, err = ReadInto(bytes.NewReader(buf.Bytes()), dst) })
	if err != nil {
		t.Fatal(err)
	}
	if &g.Data[0] != &dst[0] || len(g.Data) != f.Len() {
		t.Fatalf("ReadInto parsed %d values outside the %d-value destination", len(g.Data), cap(dst))
	}
	if perValue := float64(grew) / float64(f.Len()); perValue > 0.1 {
		t.Errorf("ReadInto allocated %.2f B/value into a destination that fits, want under 0.1", perValue)
	}
	if !slices.Equal(g.Data, f.Data) {
		t.Fatal("ReadInto values differ from the field written")
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

// TestFramingAllocations: WriteTo encodes samples through one fixed buffer
// (under 0.1 B/value of a 2^20-value field), and reading or writing a
// header costs at most one allocation.
func TestFramingAllocations(t *testing.T) {
	for _, prec := range []Precision{Float32, Float64} {
		f := MustNew("honest", prec, 64, 128, 128)
		if perValue := float64(allocated(func() { _, _ = f.WriteTo(io.Discard) })) / float64(f.Len()); perValue > 0.1 {
			t.Errorf("float%d: WriteTo allocated %.2f B/value, want under 0.1", prec, perValue)
		}
		hdr := rqmfHeader(prec, f.Dims...)
		r := bytes.NewReader(nil)
		if n := testing.AllocsPerRun(50, func() { r.Reset(hdr); _, _, _ = ReadHeader(r) }); n > 1 {
			t.Errorf("float%d: ReadHeader makes %v allocations, want at most 1", prec, n)
		}
		if n := testing.AllocsPerRun(50, func() { _, _ = WriteHeader(io.Discard, prec, f.Dims) }); n > 1 {
			t.Errorf("float%d: WriteHeader makes %v allocations, want at most 1", prec, n)
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
		readIntoAgrees(t, data, fld, err)
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

// readIntoAgrees holds ReadInto to ReadFrom's answer (fld, err) for data
// with a nil destination, garbage-filled ones shorter than, exactly as long
// as and longer than the declared shape: the same field bits, or the same
// error.
func readIntoAgrees(t *testing.T, data []byte, fld *Field, err error) {
	t.Helper()
	n := 0
	if _, dims, herr := ReadHeader(bytes.NewReader(data)); herr == nil {
		n, _ = ShapeLen(dims)
	}
	n = min(n, 1<<16) // a larger declared shape fails on its short body anyway
	garbage := func(size int) []float64 {
		d := make([]float64, size)
		for i := range d {
			d[i] = math.Float64frombits(0x7ff8dead00000000 | uint64(i))
		}
		return d
	}
	for _, dst := range [][]float64{nil, garbage(max(n-1, 0)), garbage(n), garbage(n + 7)} {
		got, gerr := ReadInto(bytes.NewReader(data), dst)
		if (gerr == nil) != (err == nil) || gerr != nil && gerr.Error() != err.Error() {
			t.Fatalf("dst cap %d: ReadInto error %v, ReadFrom error %v", cap(dst), gerr, err)
		}
		if err != nil {
			continue
		}
		if got.Prec != fld.Prec || !slices.Equal(got.Dims, fld.Dims) || len(got.Data) != len(fld.Data) {
			t.Fatalf("dst cap %d: ReadInto gave float%d %v, ReadFrom float%d %v", cap(dst), got.Prec, got.Dims, fld.Prec, fld.Dims)
		}
		for i, v := range fld.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(v) {
				t.Fatalf("dst cap %d: value %d is %#x, ReadFrom read %#x", cap(dst), i, math.Float64bits(got.Data[i]), math.Float64bits(v))
			}
		}
	}
}
