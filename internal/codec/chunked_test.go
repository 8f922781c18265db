package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"rqm/internal/grid"
)

// buildChunkedContainer assembles a small chunked container from real codec
// payloads, returning the container and the values it encodes.
func buildChunkedContainer(t testing.TB, chunkValues int, chunks [][]float64) ([]byte, []IndexEntry) {
	t.Helper()
	c, err := ByID(IDPrediction)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	hdr := &StreamHeader{CodecID: IDPrediction, Prec: grid.Float64, Name: "t", ChunkValues: chunkValues}
	if _, err := WriteStreamHeader(&buf, hdr); err != nil {
		t.Fatal(err)
	}
	var entries []IndexEntry
	var total int64
	for _, vals := range chunks {
		f, err := grid.FromData("", grid.Float64, vals, len(vals))
		if err != nil {
			t.Fatal(err)
		}
		payload, err := c.Compress(f, Options{ErrorBound: 1e-3}) // ABS
		if err != nil {
			t.Fatal(err)
		}
		off := int64(buf.Len())
		n, err := WriteChunk(&buf, &Chunk{CodecID: IDPrediction, AbsBound: 1e-3, Values: len(vals), Payload: payload})
		if err != nil {
			t.Fatal(err)
		}
		entries = append(entries, IndexEntry{Offset: off, Values: len(vals), RecordBytes: int(n), AbsBound: 1e-3})
		total += int64(len(vals))
	}
	if _, err := WriteTrailer(&buf, entries, total, int64(buf.Len())); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), entries
}

func chunkedTestValues(n int) []float64 {
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = float64(i%37) * 0.5
	}
	return vals
}

func TestStreamHeaderRoundTrip(t *testing.T) {
	cases := []StreamHeader{
		{CodecID: IDPrediction, Prec: grid.Float64, Dims: []int{8, 9, 10}, Name: "nyx/temperature", ChunkValues: 4096},
		{CodecID: IDTransform, Prec: grid.Float32, Name: "", ChunkValues: 1},
		{CodecID: 77, Prec: grid.Float64, Dims: []int{5}, Name: "x", ChunkValues: 1 << 20},
	}
	for _, want := range cases {
		var buf bytes.Buffer
		n, err := WriteStreamHeader(&buf, &want)
		if err != nil {
			t.Fatal(err)
		}
		if n != int64(buf.Len()) {
			t.Fatalf("reported %d bytes, wrote %d", n, buf.Len())
		}
		rs, err := OpenRecords(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if rs.off != n {
			t.Fatalf("consumed %d bytes, wrote %d", rs.off, n)
		}
		got := rs.Header
		if got.CodecID != want.CodecID || got.Prec != want.Prec || got.Name != want.Name ||
			got.ChunkValues != want.ChunkValues || len(got.Dims) != len(want.Dims) {
			t.Fatalf("got %+v, want %+v", got, want)
		}
		for i := range want.Dims {
			if got.Dims[i] != want.Dims[i] {
				t.Fatalf("dims %v, want %v", got.Dims, want.Dims)
			}
		}
	}
}

// TestChunkedContainerRoundTrip is the table-driven framing test: empty
// streams, single chunks, chunk-boundary-exact sizes, and partial tails all
// survive Decompress.
func TestChunkedContainerRoundTrip(t *testing.T) {
	cases := []struct {
		name        string
		chunkValues int
		sizes       []int
	}{
		{"one chunk", 64, []int{40}},
		{"boundary exact", 64, []int{64, 64}},
		{"partial tail", 64, []int{64, 64, 17}},
		{"single value chunks", 1, []int{1, 1, 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var chunks [][]float64
			var want []float64
			for _, n := range tc.sizes {
				vals := chunkedTestValues(n)
				chunks = append(chunks, vals)
				want = append(want, vals...)
			}
			data, _ := buildChunkedContainer(t, tc.chunkValues, chunks)

			f, err := Decompress(data)
			if err != nil {
				t.Fatal(err)
			}
			if f.Len() != len(want) {
				t.Fatalf("decoded %d values, want %d", f.Len(), len(want))
			}
			for i := range want {
				if diff := f.Data[i] - want[i]; diff > 1e-3 || diff < -1e-3 {
					t.Fatalf("value %d: %g vs %g breaks the bound", i, f.Data[i], want[i])
				}
			}

			info, err := Inspect(data)
			if err != nil {
				t.Fatal(err)
			}
			if !info.Chunked || info.Chunks != len(tc.sizes) || info.TotalValues != int64(len(want)) {
				t.Fatalf("info %+v, want %d chunks / %d values", info, len(tc.sizes), len(want))
			}
		})
	}
}

// TestChunkedContainerEmpty checks the zero-chunk container parses and
// reports its emptiness as a typed error on decode.
func TestChunkedContainerEmpty(t *testing.T) {
	data, _ := buildChunkedContainer(t, 64, nil)
	info, err := Inspect(data)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Chunked || info.Chunks != 0 || info.TotalValues != 0 {
		t.Fatalf("info %+v, want empty chunked", info)
	}
	if _, err := Decompress(data); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("decoding an empty stream: %v, want ErrCorrupt", err)
	}
}

// TestChunkedContainerCorruption drives the typed-error contract: corrupted
// CRCs, truncated trailers, and truncated chunks fail with the right error
// and never panic.
func TestChunkedContainerCorruption(t *testing.T) {
	data, entries := buildChunkedContainer(t, 64, [][]float64{
		chunkedTestValues(64), chunkedTestValues(64), chunkedTestValues(30),
	})
	trailerStart := entries[len(entries)-1].Offset + int64(entries[len(entries)-1].RecordBytes)
	mut := func(f func(b []byte) []byte) []byte {
		return f(append([]byte(nil), data...))
	}
	cases := []struct {
		name    string
		blob    []byte
		wantErr error
	}{
		{"zero length", nil, ErrTruncated},
		{"single byte", data[:1], ErrTruncated},
		{"header only", mut(func(b []byte) []byte { return b[:entries[0].Offset] }), ErrTruncated},
		{"cut mid-chunk-header", mut(func(b []byte) []byte { return b[:entries[0].Offset+10] }), ErrTruncated},
		{"cut mid-payload", mut(func(b []byte) []byte { return b[:entries[1].Offset-7] }), ErrTruncated},
		{"truncated trailer", mut(func(b []byte) []byte { return b[:trailerStart+9] }), ErrTruncated},
		{"missing footer", mut(func(b []byte) []byte { return b[:len(b)-footerSize] }), ErrTruncated},
		{"corrupted payload CRC", mut(func(b []byte) []byte {
			b[entries[1].Offset+int64(chunkHeadSize)+3] ^= 0xFF // flip a payload byte
			return b
		}), ErrChecksum},
		{"corrupted trailer CRC", mut(func(b []byte) []byte {
			b[trailerStart+5+4] ^= 0xFF // flip an index-entry byte under the trailer CRC
			return b
		}), ErrChecksum},
		{"bad record tag", mut(func(b []byte) []byte {
			b[entries[1].Offset] = 99
			return b
		}), ErrCorrupt},
		{"trailing garbage", mut(func(b []byte) []byte { return append(b, 0xAA) }), ErrCorrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Decompress(tc.blob); !errors.Is(err, tc.wantErr) {
				t.Fatalf("Decompress: %v, want %v", err, tc.wantErr)
			}
			// Inspect must agree on structural failures (it skips payload
			// CRCs by design, so corruption under an intact structure may
			// legitimately pass inspection).
			if tc.wantErr != ErrChecksum {
				if _, err := Inspect(tc.blob); !errors.Is(err, tc.wantErr) {
					t.Fatalf("Inspect: %v, want %v", err, tc.wantErr)
				}
			}
		})
	}
}

// TestCorruptLengthsDoNotAllocate pins the hostile-input contract: a tiny
// container whose length fields declare gigabytes must fail with a typed
// error, not attempt the allocation (a corrupt trailer count previously
// drove a fatal OOM from a ~30-byte input).
func TestCorruptLengthsDoNotAllocate(t *testing.T) {
	data, entries := buildChunkedContainer(t, 64, [][]float64{chunkedTestValues(64)})
	trailerStart := entries[0].Offset + int64(entries[0].RecordBytes)

	huge := append([]byte(nil), data[:trailerStart+1]...) // up to the trailer tag
	huge = append(huge, 0xFF, 0xFF, 0xFF, 0xFF)           // count = 4294967295
	if _, err := Decompress(huge); !errors.Is(err, ErrTruncated) {
		t.Fatalf("huge trailer count: %v, want ErrTruncated", err)
	}
	if _, err := Inspect(huge); !errors.Is(err, ErrTruncated) {
		t.Fatalf("Inspect huge trailer count: %v, want ErrTruncated", err)
	}

	// A chunk header declaring a ~2 GB payload on a short container.
	bigChunk := append([]byte(nil), data[:entries[0].Offset]...)
	rec := make([]byte, chunkHeadSize)
	rec[0] = tagChunk
	rec[1] = byte(IDPrediction)
	binary.LittleEndian.PutUint32(rec[10:], 64)
	binary.LittleEndian.PutUint32(rec[14:], maxChunkPayload-1)
	bigChunk = append(bigChunk, rec...)
	if _, err := Decompress(bigChunk); !errors.Is(err, ErrTruncated) {
		t.Fatalf("huge payload length: %v, want ErrTruncated", err)
	}
}

// TestLoadIndexRandomAccess walks the trailer index and decodes chunks out
// of order through ReadChunkAt.
func TestLoadIndexRandomAccess(t *testing.T) {
	sizes := []int{64, 64, 25}
	var chunks [][]float64
	for _, n := range sizes {
		chunks = append(chunks, chunkedTestValues(n))
	}
	data, wantEntries := buildChunkedContainer(t, 64, chunks)

	idx, err := LoadIndex(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if idx.TotalValues != 64+64+25 || len(idx.Entries) != len(wantEntries) {
		t.Fatalf("index %+v, want %d entries / 153 values", idx, len(wantEntries))
	}
	for i, e := range idx.Entries {
		if e != wantEntries[i] {
			t.Fatalf("entry %d: %+v, want %+v", i, e, wantEntries[i])
		}
	}
	// Decode the last chunk only — no other record is touched.
	c, err := ReadChunkAt(bytes.NewReader(data), idx.Entries[2])
	if err != nil {
		t.Fatal(err)
	}
	vals, err := DecodeChunk(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 25 {
		t.Fatalf("random-access chunk decoded %d values, want 25", len(vals))
	}
	for i, v := range vals {
		if diff := v - chunks[2][i]; diff > 1e-3 || diff < -1e-3 {
			t.Fatalf("value %d: %g vs %g breaks the bound", i, v, chunks[2][i])
		}
	}
}

// TestLoadIndexRejectsTruncatedFooter checks the random-access path reports
// typed errors on footer damage.
func TestLoadIndexRejectsTruncatedFooter(t *testing.T) {
	data, _ := buildChunkedContainer(t, 64, [][]float64{chunkedTestValues(64)})
	if _, err := LoadIndex(bytes.NewReader(data[:len(data)-5])); !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated footer: %v, want typed container error", err)
	}
	bad := append([]byte(nil), data...)
	bad[len(bad)-1] ^= 0xFF
	if _, err := LoadIndex(bytes.NewReader(bad)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad footer magic: %v, want ErrCorrupt", err)
	}
}

// TestOpenRejectsFutureVersion pins versions above 2 to
// ErrUnsupportedVersion now that 2 is taken by the chunked format.
func TestOpenRejectsFutureVersion(t *testing.T) {
	data, _ := buildChunkedContainer(t, 64, [][]float64{chunkedTestValues(10)})
	bad := append([]byte(nil), data...)
	bad[4] = 3
	if _, err := Inspect(bad); !errors.Is(err, ErrUnsupportedVersion) {
		t.Fatalf("version 3: %v, want ErrUnsupportedVersion", err)
	}
}
