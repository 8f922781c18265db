package rqm

import (
	"io"

	"rqm/internal/codec"
	"rqm/internal/partition"
	"rqm/internal/stream"
)

// Streaming: the chunked compression pipeline. NewWriter splits a value
// stream into chunks, compresses them concurrently on a bounded worker
// pool, and emits a self-describing chunked container (envelope v2) whose
// trailer index makes every chunk randomly addressable; NewReader runs the
// pipeline in reverse. Memory stays O(workers × chunk size) on both sides,
// so arbitrarily large datasets stream through a fixed footprint, and
// rqm.Decompress reads chunked containers like any other (and NewReader
// reads an envelope as a stream of one chunk).
//
// Write side:
//
//	var buf bytes.Buffer
//	w, _ := rqm.NewWriter(&buf,
//	    rqm.WithStreamShape(rqm.Float64, 512, 512, 512),
//	    rqm.WithStreamCompression(rqm.CodecOptions{Mode: rqm.REL, ErrorBound: 1e-3}),
//	    rqm.WithStreamValueRange(lo, hi), // REL resolves once, stream-globally
//	    rqm.WithStreamWorkers(8))
//	_ = w.WriteValues(field.Data) // or io.Copy(w, rawSampleFile)
//	_ = w.Close()                 // flush + trailer index
//
// A REL bound is defined against the whole field's value range, so the
// writer refuses to guess it from chunk-local ranges: REL mode requires the
// stream-global range, either declared with WithStreamValueRange as above or
// resolved from a known field via Engine.NewFieldStreamWriter
// (ErrStreamNeedsValueRange otherwise). Streamed and whole-buffer REL
// compression of the same field therefore enforce the same absolute bound.
//
// Read side (either API):
//
//	r, _ := rqm.NewReader(&buf)
//	back, _ := r.ReadAll()        // or chunk-at-a-time via r.NextChunk()
//
// Adaptive per-chunk tuning — the paper's ratio-quality model driving the
// pipeline: each worker profiles its chunk with one cheap sampling pass and
// compresses it at the bound the model solves for a global target, so smooth
// regions get loose bounds and complex regions tight ones:
//
//	w, _ := rqm.NewWriter(&buf,
//	    rqm.WithAdaptiveBound(rqm.AdaptiveBound{TargetPSNR: 70}))
//
// Spatial partitioning goes one step further: instead of slicing the stream
// into fixed-size slabs, a Partitioner plans chunk geometry from the data
// itself. VarianceQuadtree recursively splits the field where variance is
// non-uniform; the workers then solve the model per region with the same
// solve fixed slabs get, a PSNR target adjusted by the region's share of the
// field's value range. One container mixes large loose-bound chunks over
// smooth regions with small tight-bound chunks over turbulent ones — a
// better ratio at the same delivered quality:
//
//	w, _ := rqm.NewWriter(&buf,
//	    rqm.WithStreamShape(rqm.Float64, 512, 512, 512),
//	    rqm.WithAdaptiveBound(rqm.AdaptiveBound{TargetPSNR: 70}),
//	    rqm.WithPartitioner(rqm.VarianceQuadtree{}))
type (
	// StreamWriter is the chunked, concurrent compression writer.
	StreamWriter = stream.Writer
	// StreamReader is the chunked, concurrent decompression reader.
	StreamReader = stream.Reader
	// StreamOption configures NewWriter.
	StreamOption = stream.Option
	// StreamReaderOption configures NewReader.
	StreamReaderOption = stream.ReaderOption
	// StreamStats summarizes a finished stream write.
	StreamStats = stream.Stats
	// AdaptiveBound is the per-chunk error-bound policy for NewWriter: the
	// ratio-quality model profiles every chunk and solves for the bound
	// meeting a global ratio or PSNR target.
	AdaptiveBound = stream.AdaptiveBound
	// Partitioner plans how a stream's values are split into independently
	// compressed chunks (the partition layer; see WithPartitioner).
	Partitioner = partition.Partitioner
	// FixedSlab is the default Partitioner: uniform fixed-size slabs, the
	// historical chunking behavior.
	FixedSlab = partition.FixedSlab
	// VarianceQuadtree is the spatially adaptive Partitioner: it splits the
	// field where variance is non-uniform, and the writer solves the
	// ratio-quality model per region. Requires WithAdaptiveBound.
	VarianceQuadtree = partition.VarianceQuadtree
	// PartitionRegion is one planned region of a partitioned window.
	PartitionRegion = partition.Region
	// PartitionPlan is a Partitioner's output: an ordered tiling of regions.
	PartitionPlan = partition.Plan
	// StreamHeader describes a chunked container stream.
	StreamHeader = codec.StreamHeader
	// StreamIndex is a chunked container's random-access directory.
	StreamIndex = codec.StreamIndex
	// StreamIndexEntry locates one chunk inside a chunked container.
	StreamIndexEntry = codec.IndexEntry
)

// ErrEmptyStream marks a structurally valid chunked container holding zero
// values.
var ErrEmptyStream = stream.ErrEmptyStream

// ErrStreamClosed marks use of a StreamWriter or StreamReader after Close:
// WriteValues, Write, WriteField and a second Close on a writer, and
// NextChunk, Read, ReadAll and WriteField on a reader.
var ErrStreamClosed = stream.ErrClosed

// ErrChecksum marks a chunk or trailer whose CRC does not match its bytes.
var ErrChecksum = codec.ErrChecksum

// ErrStreamNeedsValueRange marks a REL-mode NewWriter without a declared
// finite stream-global value range (see WithStreamValueRange).
var ErrStreamNeedsValueRange = stream.ErrNeedValueRange

// NewWriter starts a streaming compressor over w: values written through it
// are chunked, compressed concurrently, and framed into a chunked container.
// Close finalizes the container with its trailer index.
func NewWriter(w io.Writer, opts ...StreamOption) (*StreamWriter, error) {
	return stream.NewWriter(w, opts...)
}

// NewReader starts a streaming decompressor over any container — a chunked
// stream, or a v1 envelope read as a stream of one chunk — decoding chunks
// concurrently and handing them back in stream order. An envelope must end
// r: bytes after its payload are ErrCorrupt.
func NewReader(r io.Reader, opts ...StreamReaderOption) (*StreamReader, error) {
	return stream.NewReader(r, opts...)
}

// WithStreamCodecName selects the backend codec for every chunk by name.
func WithStreamCodecName(name string) StreamOption { return stream.WithCodecName(name) }

// WithStreamCompression sets the codec options applied to every chunk.
func WithStreamCompression(o CodecOptions) StreamOption { return stream.WithCompression(o) }

// WithStreamModel tunes the ratio-quality model behind WithAdaptiveBound.
func WithStreamModel(o ModelOptions) StreamOption { return stream.WithModel(o) }

// WithAdaptiveBound installs the per-chunk adaptive error-bound policy.
func WithAdaptiveBound(a AdaptiveBound) StreamOption { return stream.WithAdaptive(a) }

// WithChunkSize sets the chunk size in values (default 256 Ki).
func WithChunkSize(values int) StreamOption { return stream.WithChunkValues(values) }

// WithPartitioner installs the chunk-planning strategy. The default
// FixedSlab reproduces the historical uniform slabs byte for byte;
// VarianceQuadtree plans variance-guided spatial regions with per-region
// solved bounds (requires WithAdaptiveBound).
func WithPartitioner(p Partitioner) StreamOption { return stream.WithPartitioner(p) }

// PartitionerByName resolves a registered partitioner by name: "" or "fixed"
// for FixedSlab, "variance-quadtree" for VarianceQuadtree. Manifest and
// service layers use these names to make adaptive-space geometry
// reproducible.
func PartitionerByName(name string) (Partitioner, error) { return partition.ByName(name) }

// WithStreamWorkers sets the concurrent chunk-compressor count (default
// GOMAXPROCS).
func WithStreamWorkers(n int) StreamOption { return stream.WithWorkers(n) }

// WithStreamShape records the logical field shape and precision in the
// stream header so readers reassemble the original N-dimensional field.
func WithStreamShape(prec Precision, dims ...int) StreamOption {
	return stream.WithShape(prec, dims...)
}

// WithStreamFieldName records the field name in the stream header.
func WithStreamFieldName(name string) StreamOption { return stream.WithName(name) }

// WithStreamValueRange declares the stream-global value range a REL error
// bound resolves against — once, for the whole stream — so streamed and
// whole-buffer REL compression enforce the same absolute bound. Required for
// REL mode; ignored by ABS and PWREL.
func WithStreamValueRange(lo, hi float64) StreamOption { return stream.WithValueRange(lo, hi) }

// WithStreamReaderWorkers sets the concurrent chunk-decompressor count
// (default GOMAXPROCS).
func WithStreamReaderWorkers(n int) StreamReaderOption { return stream.WithReaderWorkers(n) }

// IsChunkedContainer reports whether data begins with a chunked stream
// container signature (5 bytes suffice): whether ReadStreamIndex can index
// it. Decompress, Inspect and NewReader need no such check.
func IsChunkedContainer(data []byte) bool { return codec.IsChunked(data) }

// ReadStreamIndex loads a chunked container's trailer index through its
// footer — the random-access entry point. With the index, ReadStreamChunk
// decodes any chunk without touching the rest of the container.
func ReadStreamIndex(rs io.ReadSeeker) (*StreamIndex, error) {
	return codec.LoadIndex(rs)
}

// ReadStreamChunk random-accesses one indexed chunk: seek to its record,
// verify the CRC, and decompress just that chunk's samples.
func ReadStreamChunk(rs io.ReadSeeker, e StreamIndexEntry) ([]float64, error) {
	return codec.DecodeChunkAt(rs, e, nil)
}
