package codec_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"testing"

	"rqm/internal/codec"
	"rqm/internal/grid"
	"rqm/internal/stream"
)

// Every reader of the chunked grammar — the serial codec.Decompress, the
// concurrent stream.Reader, the index-driven LoadIndex + ReadChunkAt +
// DecodeChunk, and the heads-only codec.Inspect — must reach the same verdict
// on the same bytes. The tests below build small containers by hand, damage
// one stored copy of a fact at a time, and hold the readers against each
// other.

// testContainer assembles a chunked container of len(sizes) chunks through
// the write path, returning it with its (honest) index.
func testContainer(t testing.TB, sizes ...int) ([]byte, *codec.StreamIndex) {
	t.Helper()
	c, err := codec.ByID(codec.IDPrediction)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, n := range sizes {
		total += n
	}
	var buf bytes.Buffer
	hdr := &codec.StreamHeader{CodecID: codec.IDPrediction, Prec: grid.Float64, Dims: []int{total}, Name: "agree", ChunkValues: sizes[0]}
	if _, err := codec.WriteStreamHeader(&buf, hdr); err != nil {
		t.Fatal(err)
	}
	var entries []codec.IndexEntry
	next := 0
	for _, n := range sizes {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = float64((next+i)%53) * 0.25
		}
		next += n
		f, err := grid.FromData("", grid.Float64, vals, n)
		if err != nil {
			t.Fatal(err)
		}
		payload, err := c.Compress(f, codec.Options{ErrorBound: 1e-3})
		if err != nil {
			t.Fatal(err)
		}
		off := int64(buf.Len())
		rec, err := codec.WriteChunk(&buf, &codec.Chunk{CodecID: codec.IDPrediction, AbsBound: 1e-3, Values: n, Payload: payload})
		if err != nil {
			t.Fatal(err)
		}
		entries = append(entries, codec.IndexEntry{Offset: off, Values: n, RecordBytes: int(rec), AbsBound: 1e-3})
	}
	if _, err := codec.WriteTrailer(&buf, entries, int64(total), int64(buf.Len())); err != nil {
		t.Fatal(err)
	}
	idx, err := codec.LoadIndex(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), idx
}

// withTrailer replaces data's trailer and footer by ones written from
// entries (trailer CRC recomputed, footer pointing at the trailer).
func withTrailer(t testing.TB, data []byte, idx *codec.StreamIndex, entries []codec.IndexEntry) []byte {
	t.Helper()
	last := idx.Entries[len(idx.Entries)-1]
	trailer := last.Offset + int64(last.RecordBytes)
	buf := bytes.NewBuffer(bytes.Clone(data[:trailer]))
	if _, err := codec.WriteTrailer(buf, entries, idx.TotalValues, trailer); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// verdict is what one reader made of a container: the values it decoded, or
// the class of its error.
type verdict struct {
	vals  []float64
	class string
}

func (v verdict) String() string {
	if v.class == "" {
		return fmt.Sprintf("accept (%d values)", len(v.vals))
	}
	return v.class
}

// classOf names the typed container error err wraps ("" for nil).
func classOf(err error) string {
	for _, c := range []struct {
		is   error
		name string
	}{
		{codec.ErrTruncated, "ErrTruncated"}, {codec.ErrCorrupt, "ErrCorrupt"},
		{codec.ErrChecksum, "ErrChecksum"}, {codec.ErrBadMagic, "ErrBadMagic"},
		{codec.ErrUnsupportedVersion, "ErrUnsupportedVersion"}, {codec.ErrUnknownCodec, "ErrUnknownCodec"},
	} {
		if errors.Is(err, c.is) {
			return c.name
		}
	}
	if err != nil {
		return "untyped: " + err.Error()
	}
	return ""
}

func verdictOf(f *grid.Field, err error) verdict {
	if err != nil {
		return verdict{class: classOf(err)}
	}
	return verdict{vals: f.Data}
}

func serialVerdict(data []byte) verdict { return verdictOf(codec.Decompress(data)) }

func streamVerdict(workers int) func([]byte) verdict {
	return func(data []byte) verdict {
		r, err := stream.NewReader(bytes.NewReader(data), stream.WithReaderWorkers(workers))
		if err != nil {
			return verdict{class: classOf(err)}
		}
		defer r.Close()
		return verdictOf(r.ReadAll())
	}
}

func indexVerdict(data []byte) verdict {
	rs := bytes.NewReader(data)
	idx, err := codec.LoadIndex(rs)
	if err != nil {
		return verdict{class: classOf(err)}
	}
	var vals []float64
	for _, e := range idx.Entries {
		c, err := codec.ReadChunkAt(rs, e)
		if err != nil {
			return verdict{class: classOf(err)}
		}
		chunk, err := codec.DecodeChunk(c)
		if err != nil {
			return verdict{class: classOf(err)}
		}
		vals = append(vals, chunk...)
	}
	return verdict{vals: vals}
}

// namedReader is one decoding reader under test.
type namedReader struct {
	name string
	read func([]byte) verdict
}

// agree runs the decoding readers and Inspect over data and fails unless
// they agree: the same values, or the same error class. Inspect reads no
// payload byte and decodes nothing, so it is excused where excused(its
// class, the decoders' class) says their verdict comes from decoding.
func agree(t *testing.T, what string, data []byte, readers []namedReader, excused func(inspect, decoded string) bool) verdict {
	t.Helper()
	first := readers[0].read(data)
	for _, rd := range readers[1:] {
		if v := rd.read(data); v.class != first.class || !slices.Equal(v.vals, first.vals) {
			t.Errorf("%s: readers disagree: %s %v, %s %v", what, readers[0].name, first, rd.name, v)
			return first
		}
	}
	_, err := codec.Inspect(data)
	if got := classOf(err); got != first.class && !excused(got, first.class) {
		t.Errorf("%s: Inspect says %q, the decoding readers %v", what, got, first)
	}
	return first
}

// requireAgreement holds the three decoding readers of a chunked container
// and Inspect to one verdict. Inspect is excused exactly where the others'
// verdict comes from a payload: a checksum failure or an unknown chunk codec.
func requireAgreement(t *testing.T, what string, data []byte) verdict {
	t.Helper()
	readers := []namedReader{{"Decompress", serialVerdict}, {"stream.Reader", streamVerdict(2)},
		{"LoadIndex+ReadChunkAt", indexVerdict}}
	return agree(t, what, data, readers, func(_, decoded string) bool {
		return decoded == "ErrChecksum" || decoded == "ErrUnknownCodec"
	})
}

// requireEnvelopeAgreement holds the readers of a v1 envelope — Decompress
// and the stream.Reader at 1 and 4 workers; it has no index — and Inspect to
// one verdict. No CRC covers an envelope's payload, so Inspect may accept
// what decoding refuses: a payload its codec cannot decode, or does not
// decode to the value count the shape declares (ErrCorrupt), or an unknown
// codec.
func requireEnvelopeAgreement(t *testing.T, what string, data []byte) verdict {
	t.Helper()
	readers := []namedReader{{"Decompress", serialVerdict}, {"stream.Reader(1)", streamVerdict(1)},
		{"stream.Reader(4)", streamVerdict(4)}}
	return agree(t, what, data, readers, func(inspect, decoded string) bool {
		return inspect == "" && (decoded == "ErrCorrupt" || decoded == "ErrUnknownCodec")
	})
}

// TestLyingTrailerRejected is probe (1) of ISSUE 24: four 1024-value records
// under a trailer that indexes {2048, 1024, 512, 512} — total, count, offsets
// and the trailer CRC all consistent. Every reader sized buffers by whichever
// copy it happened to read; now the copies must agree.
func TestLyingTrailerRejected(t *testing.T) {
	data, idx := testContainer(t, 1024, 1024, 1024, 1024)
	lie := slices.Clone(idx.Entries)
	lie[0].Values, lie[2].Values, lie[3].Values = 2048, 512, 512
	lying := withTrailer(t, data, idx, lie)

	if _, err := codec.ReadChunkAt(bytes.NewReader(lying), lie[0]); !errors.Is(err, codec.ErrCorrupt) {
		t.Fatalf("ReadChunkAt under a lying entry: %v, want ErrCorrupt", err)
	}
	if c, err := codec.ReadChunkAt(bytes.NewReader(lying), lie[1]); err != nil || c.Values != 1024 {
		t.Fatalf("ReadChunkAt under the one honest entry: %v", err)
	}
	if err := codec.VerifyChunkAt(bytes.NewReader(lying), lie[0]); !errors.Is(err, codec.ErrCorrupt) {
		t.Fatalf("VerifyChunkAt under a lying entry: %v, want ErrCorrupt", err)
	}
	if err := codec.VerifyChunkAt(bytes.NewReader(lying), lie[1]); err != nil {
		t.Fatalf("VerifyChunkAt under the one honest entry: %v", err)
	}
	if _, err := codec.Decompress(lying); !errors.Is(err, codec.ErrCorrupt) {
		t.Fatalf("Decompress: %v, want ErrCorrupt", err)
	}
	r, err := stream.NewReader(bytes.NewReader(lying))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.ReadAll(); !errors.Is(err, codec.ErrCorrupt) {
		t.Fatalf("stream.Reader.ReadAll: %v, want ErrCorrupt", err)
	}
	if v := requireAgreement(t, "lying trailer", lying); v.class != "ErrCorrupt" {
		t.Fatalf("lying trailer: %v, want ErrCorrupt", v)
	}

	// The bound is held the same way: one entry loosening its chunk's bound.
	loose := slices.Clone(idx.Entries)
	loose[1].AbsBound = 1e-2
	if v := requireAgreement(t, "lying bound", withTrailer(t, data, idx, loose)); v.class != "ErrCorrupt" {
		t.Fatalf("lying bound: %v, want ErrCorrupt", v)
	}
}

// TestWrongFooterRejected is probe (2): a footer pointing 7 bytes before the
// trailer used to decode through every sequential reader (none looked at the
// offset) while LoadIndex refused it.
func TestWrongFooterRejected(t *testing.T) {
	data, _ := testContainer(t, 64, 64, 30)
	bad := bytes.Clone(data)
	foot := bad[len(bad)-12:] // the footer: trailer offset (u64), magic (u32)
	binary.LittleEndian.PutUint64(foot, binary.LittleEndian.Uint64(foot)-7)
	if v := requireAgreement(t, "footer 7 bytes early", bad); v.class != "ErrCorrupt" {
		t.Fatalf("footer 7 bytes early: %v, want ErrCorrupt", v)
	}
}

// TestReadersAgree flips every structural byte of a 3-chunk container in turn
// — stream header, each record's tag and head, trailer, footer — and the
// first and last byte of each payload, and requires one verdict per damaged
// container from all readers: the same values, or the same error class.
func TestReadersAgree(t *testing.T) {
	data, idx := testContainer(t, 64, 64, 30)
	if v := requireAgreement(t, "intact", data); v.class != "" || len(v.vals) != 158 {
		t.Fatalf("intact container: %v", v)
	}

	const headSize = 22 // tag .. CRC
	trailer := idx.Entries[2].Offset + int64(idx.Entries[2].RecordBytes)
	var structural []int64
	for off := int64(0); off < idx.Entries[0].Offset; off++ { // stream header
		structural = append(structural, off)
	}
	for _, e := range idx.Entries {
		for off := e.Offset; off < e.Offset+headSize; off++ { // tag + head
			structural = append(structural, off)
		}
		structural = append(structural, e.Offset+headSize, e.Offset+int64(e.RecordBytes)-1) // payload ends
	}
	for off := trailer; off < int64(len(data)); off++ { // trailer + footer
		structural = append(structural, off)
	}

	verdicts := map[string]int{}
	for _, off := range structural {
		for _, mask := range []byte{0x01, 0x80, 0xFF} {
			bad := bytes.Clone(data)
			bad[off] ^= mask
			v := requireAgreement(t, fmt.Sprintf("byte %d ^ 0x%02x", off, mask), bad)
			if v.class == "" {
				v.class = "accept"
			}
			verdicts[v.class]++
		}
	}
	// The sweep must actually bite, in every class the grammar can produce.
	for _, class := range []string{"accept", "ErrTruncated", "ErrCorrupt", "ErrChecksum", "ErrBadMagic", "ErrUnsupportedVersion"} {
		if verdicts[class] == 0 {
			t.Errorf("no flip produced %s (saw %v)", class, verdicts)
		}
	}
	t.Logf("%d flips: %v", 3*len(structural), verdicts)
}

// TestReadersAgreeOnEnvelope is TestReadersAgree over a v1 envelope, which
// the same walker reads as a stream of one record: every head byte flipped
// in turn — magic, version, codec, precision, rank, dims, name, payload
// length — and the payload's first and last byte.
func TestReadersAgreeOnEnvelope(t *testing.T) {
	c, err := codec.ByID(codec.IDPrediction)
	if err != nil {
		t.Fatal(err)
	}
	f := grid.MustNew("agree", grid.Float64, 2, 79)
	for i := range f.Data {
		f.Data[i] = float64(i%53) * 0.25
	}
	payload, err := c.Compress(f, codec.Options{ErrorBound: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	data, err := codec.Seal(codec.IDPrediction, f, payload)
	if err != nil {
		t.Fatal(err)
	}
	if v := requireEnvelopeAgreement(t, "intact", data); v.class != "" || len(v.vals) != 158 {
		t.Fatalf("intact envelope: %v", v)
	}
	// A streamed envelope must end its source, as an in-memory one must.
	if v := requireEnvelopeAgreement(t, "trailing byte", append(bytes.Clone(data), 0)); v.class != "ErrCorrupt" {
		t.Fatalf("envelope with a trailing byte: %v, want ErrCorrupt", v)
	}

	head := len(data) - len(payload)
	var structural []int
	for off := range head { // the head
		structural = append(structural, off)
	}
	structural = append(structural, head, len(data)-1) // payload ends
	verdicts := map[string]int{}
	for _, off := range structural {
		for _, mask := range []byte{0x01, 0x80, 0xFF} {
			bad := bytes.Clone(data)
			bad[off] ^= mask
			v := requireEnvelopeAgreement(t, fmt.Sprintf("byte %d ^ 0x%02x", off, mask), bad)
			if v.class == "" {
				v.class = "accept"
			}
			verdicts[v.class]++
		}
	}
	for _, class := range []string{"accept", "ErrTruncated", "ErrCorrupt", "ErrBadMagic", "ErrUnsupportedVersion", "ErrUnknownCodec"} {
		if verdicts[class] == 0 {
			t.Errorf("no flip produced %s (saw %v)", class, verdicts)
		}
	}
	t.Logf("%d flips: %v", 3*len(structural), verdicts)
}
