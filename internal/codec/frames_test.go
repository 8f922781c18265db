package codec

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"strings"
	"testing"

	"rqm/internal/grid"
)

// pinnedFrameShapes cover every rank a frame carries.
var pinnedFrameShapes = [][]int{{5}, {3, 4}, {2, 3, 2}, {2, 1, 3, 2}}

// pinnedFrameNames are the empty name, a typical one, and one longer than a
// frame holds (truncated at maxEnvelopeName).
var pinnedFrameNames = []string{"", "nyx/temperature", strings.Repeat("abcdefg", 10000)}

// pinnedTrailers are index sets of 0, 1 and 3 entries, one bound a NaN.
var pinnedTrailers = [][]IndexEntry{
	nil,
	{{Values: 7, AbsBound: 1e-3}},
	{{Values: 3, AbsBound: 0.25}, {Values: 1, AbsBound: math.NaN()}, {Values: 9, AbsBound: 0}},
}

// pinEntries hashes index entries field by field, the bound by its bits.
func pinEntries(h hash.Hash, entries []IndexEntry) {
	for _, e := range entries {
		fmt.Fprintf(h, "%d %d %d %x;", e.Offset, e.Values, e.RecordBytes, math.Float64bits(e.AbsBound))
	}
}

// TestFramesPinned hashes every container frame writer's output — the
// envelope, the stream header, the trailer with its footer, and the .rqmf
// field — over ranks 1-4 × f32/f64 × three names, together with what Open,
// LoadIndex and grid.ReadFrom parse back from them. Any moved byte or parsed
// value changes the hash.
func TestFramesPinned(t *testing.T) {
	const want = "f12d0bfce329665b361065a9b24689335fd629ba115754ada7fe806edc3361cb"
	h := sha256.New()
	var scratch [8]byte
	for _, dims := range pinnedFrameShapes {
		for _, prec := range []grid.Precision{grid.Float32, grid.Float64} {
			for ni, name := range pinnedFrameNames {
				tag := fmt.Sprintf("%v f%d name %d", dims, prec, ni)
				f := grid.MustNew(name, prec, dims...)
				for i := range f.Data {
					f.Data[i] = float64(i)*1.0625 - 3.3 + float64(ni)
				}

				payload := []byte(tag)
				env, err := Seal(IDPrediction, f, payload)
				if err != nil {
					t.Fatalf("%s: Seal: %v", tag, err)
				}
				h.Write(env)
				info, got, err := Open(env)
				if err != nil {
					t.Fatalf("%s: Open: %v", tag, err)
				}
				fmt.Fprintf(h, "%+v %x", *info, got)

				var field bytes.Buffer
				if _, err := f.WriteTo(&field); err != nil {
					t.Fatalf("%s: WriteTo: %v", tag, err)
				}
				h.Write(field.Bytes())
				back, err := grid.ReadFrom(&field)
				if err != nil {
					t.Fatalf("%s: ReadFrom: %v", tag, err)
				}
				fmt.Fprintf(h, "%v %d %q", back.Dims, back.Prec, back.Name)
				for _, v := range back.Data {
					binary.LittleEndian.PutUint64(scratch[:], math.Float64bits(v))
					h.Write(scratch[:])
				}

				for ti, entries := range pinnedTrailers {
					hdr := &StreamHeader{CodecID: IDTransform, Prec: prec, Dims: dims, Name: name, ChunkValues: 64 << ti}
					if ti == 0 {
						hdr.Dims = nil // rank 0: shape unknown
					}
					var c bytes.Buffer
					if _, err := WriteStreamHeader(&c, hdr); err != nil {
						t.Fatalf("%s trailer %d: WriteStreamHeader: %v", tag, ti, err)
					}
					h.Write(c.Bytes())
					var total int64
					index := make([]IndexEntry, len(entries))
					for i, e := range entries {
						e.Offset = int64(c.Len())
						n, err := WriteChunk(&c, &Chunk{CodecID: ID(i + 1), AbsBound: e.AbsBound, Values: e.Values,
							Payload: bytes.Repeat([]byte{byte(i + 1)}, 5+i)})
						if err != nil {
							t.Fatalf("%s trailer %d: WriteChunk: %v", tag, ti, err)
						}
						e.RecordBytes = int(n)
						index[i] = e
						total += int64(e.Values)
					}
					var trailer bytes.Buffer
					if _, err := WriteTrailer(&trailer, index, total, int64(c.Len())); err != nil {
						t.Fatalf("%s trailer %d: WriteTrailer: %v", tag, ti, err)
					}
					h.Write(trailer.Bytes())
					c.Write(trailer.Bytes())

					idx, err := LoadIndex(bytes.NewReader(c.Bytes()))
					if err != nil {
						t.Fatalf("%s trailer %d: LoadIndex: %v", tag, ti, err)
					}
					fmt.Fprintf(h, "%+v %d", idx.Header, idx.TotalValues)
					pinEntries(h, idx.Entries)
					info, _, err := Open(c.Bytes())
					if err != nil {
						t.Fatalf("%s trailer %d: Open: %v", tag, ti, err)
					}
					fmt.Fprintf(h, "%+v", *info)
				}
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("frames hash %s, want %s", got, want)
	}
}
