package rqm_test

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"rqm"
	"rqm/internal/codec"
	"rqm/internal/compressor"
)

// fuzzSeedContainers builds one valid container of each format family plus
// systematically truncated chunked containers — the seed corpus the parser
// fuzzer mutates from. `go test` runs the seeds on every CI pass; `go test
// -fuzz=FuzzDecompress` explores beyond them.
func fuzzSeedContainers(f *testing.F) [][]byte {
	f.Helper()
	field, err := rqm.GenerateField("cesm/TS", 5, rqm.ScaleTiny)
	if err != nil {
		f.Fatal(err)
	}
	var seeds [][]byte

	eng, err := rqm.NewEngine(rqm.WithMode(rqm.REL), rqm.WithErrorBound(1e-3))
	if err != nil {
		f.Fatal(err)
	}
	res, err := eng.Compress(field)
	if err != nil {
		f.Fatal(err)
	}
	seeds = append(seeds, res.Bytes)

	// A bare native payload — no envelope — is not a container: the router
	// must refuse it at the magic.
	bare, err := compressor.Compress(field, rqm.CompressOptions{Mode: rqm.REL, ErrorBound: 1e-3})
	if err != nil {
		f.Fatal(err)
	}
	seeds = append(seeds, bare.Bytes)
	// The enveloped container with the first dimension of its native payload
	// (payload offset 30) raised to 2^30: far more values declared than the
	// payload has bits.
	info, err := rqm.Inspect(res.Bytes)
	if err != nil {
		f.Fatal(err)
	}
	oversized := bytes.Clone(res.Bytes)
	binary.LittleEndian.PutUint64(oversized[len(oversized)-info.PayloadBytes+30:], 1<<30)
	seeds = append(seeds, oversized)

	// Version 2 native containers: the interleaved and tANS entropy stages
	// add chunk-body sections (stream-length framing, ANS table + states)
	// the fuzzer must exercise.
	for _, name := range []string{rqm.CodecPredictionILVName, rqm.CodecPredictionTANSName} {
		c, err := rqm.CodecByName(name)
		if err != nil {
			f.Fatal(err)
		}
		res, err := rqm.CompressWith(c, field, rqm.CodecOptions{Mode: rqm.REL, ErrorBound: 1e-3})
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, res.Bytes)
		// And half-truncated, to land cuts inside the new sections.
		seeds = append(seeds, res.Bytes[:len(res.Bytes)/2])
	}

	lo, hi := field.ValueRange()
	var buf bytes.Buffer
	w, err := rqm.NewWriter(&buf,
		rqm.WithStreamShape(field.Prec, field.Dims...),
		rqm.WithStreamValueRange(lo, hi),
		rqm.WithChunkSize(2048))
	if err != nil {
		f.Fatal(err)
	}
	if err := w.WriteValues(field.Data); err != nil {
		f.Fatal(err)
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	chunked := buf.Bytes()
	seeds = append(seeds, chunked)

	// Truncated chunked containers: every structurally interesting cut.
	idx, err := rqm.ReadStreamIndex(bytes.NewReader(chunked))
	if err != nil {
		f.Fatal(err)
	}
	first := idx.Entries[0]
	last := idx.Entries[len(idx.Entries)-1]
	trailer := last.Offset + int64(last.RecordBytes)
	// Containers whose stored copies of one fact disagree, every CRC valid:
	// a trailer that moves half the last record's values to the first entry
	// (count and total intact), and a footer placing the trailer 7 bytes
	// early. Every reader must refuse both.
	lie := slices.Clone(idx.Entries)
	moved := last.Values / 2
	lie[0].Values += moved
	lie[len(lie)-1].Values -= moved
	lying := bytes.NewBuffer(bytes.Clone(chunked[:trailer]))
	if _, err := codec.WriteTrailer(lying, lie, idx.TotalValues, trailer); err != nil {
		f.Fatal(err)
	}
	early := bytes.Clone(chunked)
	binary.LittleEndian.PutUint64(early[len(early)-12:], uint64(trailer-7))
	seeds = append(seeds, lying.Bytes(), early)
	for _, cut := range []int64{
		0, 1, 4, 5, // inside the magic/version
		first.Offset,             // header only
		first.Offset + 3,         // mid chunk header
		first.Offset + 30,        // mid payload
		trailer,                  // chunks but no trailer
		trailer + 7,              // mid index
		int64(len(chunked)) - 12, // missing footer
		int64(len(chunked)) - 1,  // missing last footer byte
	} {
		if cut >= 0 && cut <= int64(len(chunked)) {
			seeds = append(seeds, chunked[:cut])
		}
	}

	// Spatially partitioned containers: the quadtree planner emits chunks of
	// differing sizes with per-region bounds, a geometry uniform-slab seeds
	// never produce. Seed the whole container plus cuts landing mid-stream so
	// mutation explores truncation and corruption over variable chunk sizes.
	mixed, err := rqm.GenerateField("mixed", 13, rqm.ScaleTiny)
	if err != nil {
		f.Fatal(err)
	}
	var qbuf bytes.Buffer
	qw, err := rqm.NewWriter(&qbuf,
		rqm.WithStreamShape(mixed.Prec, mixed.Dims...),
		rqm.WithAdaptiveBound(rqm.AdaptiveBound{TargetPSNR: 60}),
		rqm.WithPartitioner(rqm.VarianceQuadtree{SplitFactor: 1.1, MinRegionValues: 1024}))
	if err != nil {
		f.Fatal(err)
	}
	if err := qw.WriteValues(mixed.Data); err != nil {
		f.Fatal(err)
	}
	if err := qw.Close(); err != nil {
		f.Fatal(err)
	}
	quad := qbuf.Bytes()
	qidx, err := rqm.ReadStreamIndex(bytes.NewReader(quad))
	if err != nil {
		f.Fatal(err)
	}
	if len(qidx.Entries) < 2 {
		f.Fatalf("quadtree seed planned %d chunks, want variable geometry", len(qidx.Entries))
	}
	seeds = append(seeds, quad)
	for _, e := range qidx.Entries {
		for _, cut := range []int64{e.Offset, e.Offset + int64(e.RecordBytes)/2} {
			if cut >= 0 && cut <= int64(len(quad)) {
				seeds = append(seeds, quad[:cut])
			}
		}
	}
	// Bit-rot seeds mirroring what the store's scrubber quarantines: single
	// byte flips in a chunk head, mid-payload (CRC-covered), and inside the
	// trailer index. The decoder must fail typed on all of them, never hang
	// or panic — the same contract the corruption matrix pins on disk.
	for _, off := range []int64{qidx.Entries[0].Offset + 2,
		qidx.Entries[0].Offset + 30,
		int64(len(quad)) - 20} {
		if off > 0 && off < int64(len(quad)) {
			rot := append([]byte(nil), quad...)
			rot[off] ^= 0xFF
			seeds = append(seeds, rot)
		}
	}
	// Transform payloads declaring far more than they hold, each sealed in a
	// valid envelope: a codebook length of 2 GiB over 3 bytes, and 2^15×2^14
	// values over a one-class codebook and 4 payload bytes. The decoder must
	// refuse both before sizing anything by them.
	le := binary.LittleEndian
	transformHead := func(dims ...uint64) []byte {
		b := le.AppendUint32(nil, 0x52515A46) // "RQZF"
		b = le.AppendUint64(b, math.Float64bits(1e-3))
		b = append(b, 32, byte(len(dims)))
		for _, d := range dims {
			b = le.AppendUint64(b, d)
		}
		return le.AppendUint16(b, 0) // no name
	}
	bigShape := append(le.AppendUint32(transformHead(1<<15, 1<<14), 3), 1, 1, 1)
	for _, payload := range [][]byte{
		append(le.AppendUint32(transformHead(64), 1<<31), 1, 1, 1),
		append(le.AppendUint32(bigShape, 4), 0, 0, 0, 0),
	} {
		sealed, err := codec.Seal(codec.IDTransform, field, payload)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, sealed)
	}
	// A stream header whose dimensions each pass a per-axis check but whose
	// value count overflows.
	seeds = append(seeds, overflowingContainer(f))
	// Every archived container (the compatibility table's envelope, chunked
	// and dataset rows), so mutation starts from each wire form ever written.
	archived, _ := filepath.Glob("testdata/pre_pr*.rqz") // the pattern is well formed
	for _, path := range append(archived, "internal/store/testdata/pre_pr30_dataset/data.rqz") {
		blob, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, blob)
	}
	return seeds
}

// FuzzDecompress asserts the container parsers never panic: every input —
// valid, truncated, or mutated — must come back as a field or an error. The
// indexed reader (ReadStreamIndex, then ReadStreamChunk on every entry) runs
// too, and when it and the sequential reader both accept an input they must
// decode it to the same values, bit for bit.
func FuzzDecompress(f *testing.F) {
	for _, seed := range fuzzSeedContainers(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Decompress and Inspect must return, not panic; errors are expected.
		field, err := rqm.Decompress(data)
		_, _ = rqm.Inspect(data)
		if r, err := rqm.NewReader(bytes.NewReader(data)); err == nil {
			for i := 0; i < 1<<16; i++ {
				if _, err := r.NextChunk(); err != nil {
					break
				}
			}
			_ = r.Close()
		}
		idx, ierr := rqm.ReadStreamIndex(bytes.NewReader(data))
		var indexed []float64
		for i := 0; ierr == nil && i < len(idx.Entries); i++ {
			var vals []float64
			vals, ierr = rqm.ReadStreamChunk(bytes.NewReader(data), idx.Entries[i])
			indexed = append(indexed, vals...)
		}
		if err != nil || ierr != nil {
			return
		}
		if len(indexed) != field.Len() {
			t.Fatalf("indexed reader decodes %d values, sequential %d", len(indexed), field.Len())
		}
		for i, v := range indexed {
			if math.Float64bits(v) != math.Float64bits(field.Data[i]) {
				t.Fatalf("value %d: indexed reader %v, sequential %v", i, v, field.Data[i])
			}
		}
	})
}
