// Command rqc is the CLI front end of the error-bounded compressor family.
// Codec selection goes through the registry, so every registered backend is
// reachable with -codec; output containers are self-describing, so
// decompress and inspect need no codec flag at all.
//
// Large inputs flow through the chunked streaming pipeline: compress
// switches to it automatically above -stream-threshold (or always with
// -stream), splitting the file into chunks compressed concurrently by
// -workers, so memory stays bounded however big the dataset is. With
// -target-ratio or -target-psnr the ratio-quality model picks each chunk's
// error bound adaptively to hit the global target; adding -adaptive-space
// also lets it plan the chunk geometry, splitting the field where variance
// is non-uniform and solving per region. decompress and inspect recognize
// chunked containers on their own.
//
// Usage:
//
//	rqc compress   -in field.rqmf -out field.rqz -codec prediction -predictor lorenzo -mode rel -eb 1e-3 -lossless flate
//	rqc compress   -in field.rqmf -out field.rqz -stream -workers 8 -chunk 262144
//	rqc compress   -in field.rqmf -out field.rqz -stream -target-psnr 60
//	rqc compress   -in field.rqmf -out field.rqz -target-psnr 60 -adaptive-space
//	rqc compress   -in field.rqmf -out field.rqz -remote http://localhost:8080
//	rqc decompress -in field.rqz  -out field.rqmf [-remote http://localhost:8080]
//	rqc inspect    -in field.rqz
//
// With -remote the CLI becomes a thin client of a rqserved instance: the
// field streams up, the container streams back, and all codec flags travel
// as request-scoped options.
//
// Against a rqserved instance started with -store-dir, the dataset
// subcommands manage the persistent archive:
//
//	rqc put       -remote URL -name nyx -in field.rqmf [-mode rel -eb 1e-3 -chunk N] [-exact]
//	rqc get       -remote URL -name nyx -out field.rqmf [-off 1000 -len 500] [-raw] [-exact]
//	rqc ls        -remote URL
//	rqc rm        -remote URL -name nyx
//	rqc recompact -remote URL -name nyx -target-ratio 40 | -target-psnr 60 [-adaptive-space]
//	rqc promote   -remote URL -name nyx -in field.rqmf
//	rqc demote    -remote URL -name nyx
//
// put profiles the field once server-side and stores the container with its
// cached ratio-quality profile; get -off/-len slice-reads only the covering
// chunks; recompact re-solves the cached model for the target and skips the
// rewrite when the model says it is already met.
//
// put -exact additionally stores a lossless residual layer, so get -exact
// (whole dataset or a slice) returns the original bit for bit. promote adds
// the layer to an existing lossy dataset (the body must be the true
// original — it is verified against the dataset's content hash); demote
// drops it, keeping the lossy base.
//
// compress prints the run statistics; with -verify it also decompresses and
// checks the error bound end to end.
package main

import (
	"bufio"
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"time"

	"rqm"
	"rqm/client"
	"rqm/internal/grid"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "compress":
		cmdCompress(os.Args[2:])
	case "decompress":
		cmdDecompress(os.Args[2:])
	case "inspect":
		cmdInspect(os.Args[2:])
	case "put":
		cmdPut(os.Args[2:])
	case "get":
		cmdGet(os.Args[2:])
	case "ls":
		cmdLs(os.Args[2:])
	case "rm":
		cmdRm(os.Args[2:])
	case "recompact":
		cmdRecompact(os.Args[2:])
	case "promote":
		cmdPromote(os.Args[2:])
	case "demote":
		cmdDemote(os.Args[2:])
	case "cluster":
		cmdCluster(os.Args[2:])
	case "rebalance":
		cmdRebalance(os.Args[2:])
	case "scrub":
		cmdScrub(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: rqc compress|decompress|inspect|put|get|ls|rm|recompact|promote|demote|scrub|cluster|rebalance [flags]")
	os.Exit(2)
}

func cmdCompress(args []string) {
	fs := flag.NewFlagSet("compress", flag.ExitOnError)
	codecNames := strings.Join(rqm.CodecNames(), "|")
	var (
		in        = fs.String("in", "", "input .rqmf field file")
		out       = fs.String("out", "", "output compressed file")
		codecName = fs.String("codec", rqm.CodecPredictionName, codecNames)
		predName  = fs.String("predictor", "lorenzo", "lorenzo|lorenzo2|interpolation|interpolation-cubic|regression")
		mode      = fs.String("mode", "rel", "abs|rel|pwrel")
		eb        = fs.Float64("eb", 1e-3, "error bound (mode semantics)")
		lossless  = fs.String("lossless", "flate", "none|rle|lz77|flate")
		verify    = fs.Bool("verify", false, "decompress and verify the bound")

		streaming   = fs.Bool("stream", false, "force the chunked streaming pipeline")
		threshold   = fs.Int64("stream-threshold", 64<<20, "stream files at least this many bytes (0 disables auto-streaming)")
		chunk       = fs.Int("chunk", 0, "chunk size in values (0 = default 256Ki)")
		workers     = fs.Int("workers", 0, "concurrent chunk compressors (0 = GOMAXPROCS)")
		targetRatio = fs.Float64("target-ratio", 0, "adapt per-chunk bounds to this compression ratio (streaming)")
		targetPSNR  = fs.Float64("target-psnr", 0, "adapt per-chunk bounds to this PSNR in dB (streaming)")
		sampleRate  = fs.Float64("sample", 0, "model sampling rate for adaptive bounds (0 = default)")
		adaptSpace  = fs.Bool("adaptive-space", false, "variance-guided spatial partitioning: split chunks where the field is non-uniform and solve the model per region (needs -target-ratio or -target-psnr; buffers the stream)")
		remote      = fs.String("remote", "", "route through a rqserved instance at this base URL")
	)
	must(fs.Parse(args))
	if *in == "" || *out == "" {
		fatal(fmt.Errorf("compress: -in and -out are required"))
	}
	// Reject contradictory or nonsensical flag combinations up front, before
	// any file or network I/O, so mistakes fail with a usage error instead of
	// a confusing mid-pipeline one.
	if *targetRatio > 0 && *targetPSNR > 0 {
		fatal(fmt.Errorf("compress: -target-ratio and -target-psnr are mutually exclusive; pick one target"))
	}
	chunkSet := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "chunk" {
			chunkSet = true
		}
	})
	if chunkSet && *chunk < 1 {
		fatal(fmt.Errorf("compress: -chunk must be at least 1 value (got %d); omit the flag for the default", *chunk))
	}
	adaptive := *targetRatio > 0 || *targetPSNR > 0
	if *adaptSpace && !adaptive {
		fatal(fmt.Errorf("compress: -adaptive-space needs a model target (-target-ratio or -target-psnr)"))
	}
	if *remote != "" {
		compressRemote(*remote, *in, *out, remoteParams{
			codec: *codecName, predictor: *predName, mode: *mode, eb: *eb, lossless: *lossless,
			stream: *streaming, threshold: *threshold, chunk: *chunk,
			targetRatio: *targetRatio, targetPSNR: *targetPSNR,
			sampleRate: *sampleRate, adaptiveSpace: *adaptSpace, verify: *verify,
		})
		return
	}

	kind, err := rqm.ParsePredictorKind(*predName)
	must(err)
	m, err := rqm.ParseErrorMode(*mode)
	must(err)
	ll, err := rqm.ParseLosslessKind(*lossless)
	must(err)
	copts := rqm.CodecOptions{
		Predictor: kind, Mode: m, ErrorBound: *eb, Lossless: ll,
	}

	useStream := *streaming || adaptive
	if !useStream && *threshold > 0 {
		if st, err := os.Stat(*in); err == nil && st.Size() >= *threshold {
			useStream = true
		}
	}
	if useStream {
		compressStream(*in, *out, *codecName, copts, streamParams{
			chunk: *chunk, workers: *workers,
			targetRatio: *targetRatio, targetPSNR: *targetPSNR,
			sampleRate: *sampleRate, adaptiveSpace: *adaptSpace, verify: *verify,
		})
		return
	}

	f := readField(*in)
	eng, err := rqm.NewEngine(
		rqm.WithCodecName(*codecName),
		rqm.WithPredictor(kind),
		rqm.WithMode(m),
		rqm.WithErrorBound(*eb),
		rqm.WithLossless(ll),
	)
	must(err)

	res, err := eng.Compress(f)
	must(err)
	must(os.WriteFile(*out, res.Bytes, 0o644))
	st := res.Stats
	fmt.Printf("compressed %s (%s): %d -> %d bytes (ratio %.2fx, %.3f bits/value) in %v\n",
		*in, st.Codec, st.OriginalBytes, st.CompressedBytes, st.Ratio, st.BitRate, st.EncodeTime)
	if *verify {
		dec, err := eng.Decompress(res.Bytes)
		must(err)
		must(rqm.VerifyErrorBound(f, dec, m, *eb))
		psnr, err := rqm.PSNR(f, dec)
		must(err)
		fmt.Printf("  verified: bound holds, PSNR %.2f dB\n", psnr)
	}
}

// streamParams carries the streaming-path knobs of cmdCompress.
type streamParams struct {
	chunk, workers          int
	targetRatio, targetPSNR float64
	sampleRate              float64
	adaptiveSpace           bool
	verify                  bool
}

// compressStream pipes a field file through the chunked pipeline: the
// sample section streams straight from disk into the writer, so memory
// stays O(workers × chunk) no matter the file size.
func compressStream(in, out, codecName string, copts rqm.CodecOptions, p streamParams) {
	src, err := os.Open(in)
	must(err)
	defer src.Close()
	prec, dims, err := grid.ReadHeader(src)
	must(err)

	opts := []rqm.StreamOption{
		rqm.WithStreamCodecName(codecName),
		rqm.WithStreamCompression(copts),
		rqm.WithStreamShape(prec, dims...),
		rqm.WithStreamFieldName(in),
	}
	adaptive := p.targetRatio > 0 || p.targetPSNR > 0
	if copts.Mode == rqm.REL && !adaptive {
		// A REL bound resolves against the whole field's value range, not
		// each chunk's; one extra O(1)-memory pass over the file pins it to
		// the same range whole-buffer compression would use.
		lo, hi := scanValueRange(in)
		opts = append(opts, rqm.WithStreamValueRange(lo, hi))
	}
	if p.chunk > 0 {
		opts = append(opts, rqm.WithChunkSize(p.chunk))
	}
	if p.workers > 0 {
		opts = append(opts, rqm.WithStreamWorkers(p.workers))
	}
	if adaptive {
		opts = append(opts,
			rqm.WithAdaptiveBound(rqm.AdaptiveBound{TargetRatio: p.targetRatio, TargetPSNR: p.targetPSNR}),
			rqm.WithStreamModel(rqm.ModelOptions{SampleRate: p.sampleRate}))
	}
	if p.adaptiveSpace {
		opts = append(opts, rqm.WithPartitioner(rqm.VarianceQuadtree{}))
	}

	dst, err := os.Create(out)
	must(err)
	bw := bufio.NewWriterSize(dst, 1<<20)
	w, err := rqm.NewWriter(bw, opts...)
	if err == nil {
		_, err = io.Copy(w, bufio.NewReaderSize(src, 1<<20))
	}
	if err == nil {
		err = w.Close()
	}
	if err == nil {
		err = bw.Flush()
	}
	if cerr := dst.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		// Never leave a truncated container behind: its valid signature
		// would route a later decompress into a confusing mid-stream error.
		os.Remove(out)
	}
	must(err)

	st := w.Stats()
	mbps := float64(st.BytesIn) / (1 << 20) / st.EncodeTime.Seconds()
	fmt.Printf("streamed %s: %d -> %d bytes (ratio %.2fx, %d chunks) in %v (%.1f MB/s)\n",
		in, st.BytesIn, st.BytesOut, st.Ratio, st.Chunks, st.EncodeTime, mbps)
	if p.adaptiveSpace {
		fmt.Printf("  adaptive-space: %d regions from %d splits\n", st.Chunks, st.Splits)
	}
	if st.MinBound != st.MaxBound {
		fmt.Printf("  per-chunk bounds: [%.6g, %.6g]\n", st.MinBound, st.MaxBound)
	}
	if p.verify {
		verifyStream(in, out, copts, st.MaxBound)
	}
}

// verifyStream re-reads both files and checks the loosest per-chunk bound
// (or the user's pointwise-relative bound, which has no single absolute
// equivalent to record).
func verifyStream(in, out string, copts rqm.CodecOptions, maxBound float64) {
	orig := readField(in)
	blob, err := os.Open(out)
	must(err)
	defer blob.Close()
	r, err := rqm.NewReader(bufio.NewReaderSize(blob, 1<<20))
	must(err)
	dec, err := r.ReadAll()
	must(err)
	if maxBound > 0 {
		must(rqm.VerifyErrorBound(orig, dec, rqm.ABS, maxBound*(1+1e-12)))
	} else {
		must(rqm.VerifyErrorBound(orig, dec, copts.Mode, copts.ErrorBound))
	}
	psnr, err := rqm.PSNR(orig, dec)
	must(err)
	fmt.Printf("  verified: per-chunk bounds hold, PSNR %.2f dB\n", psnr)
}

func cmdDecompress(args []string) {
	fs := flag.NewFlagSet("decompress", flag.ExitOnError)
	var (
		in      = fs.String("in", "", "input compressed file")
		out     = fs.String("out", "", "output .rqmf field file")
		workers = fs.Int("workers", 0, "concurrent chunk decompressors (0 = GOMAXPROCS)")
		remote  = fs.String("remote", "", "route through a rqserved instance at this base URL")
	)
	must(fs.Parse(args))
	if *in == "" || *out == "" {
		fatal(fmt.Errorf("decompress: -in and -out are required"))
	}
	if *remote != "" {
		decompressRemote(*remote, *in, *out)
		return
	}
	if chunked, _ := sniffChunked(*in); chunked {
		decompressStream(*in, *out, *workers)
		return
	}
	blob, err := os.ReadFile(*in)
	must(err)
	// Containers are self-describing: routing picks the backend.
	f, err := rqm.Decompress(blob)
	must(err)
	dst, err := os.Create(*out)
	must(err)
	_, err = f.WriteTo(dst)
	if cerr := dst.Close(); err == nil {
		err = cerr
	}
	must(err)
	fmt.Printf("decompressed %s -> %s (field %q, dims %v)\n", *in, *out, f.Name, f.Dims)
}

// decompressStream decodes a chunked container through the concurrent
// reader. When the stream header carries the field shape, decoded samples
// stream straight to the output file.
func decompressStream(in, out string, workers int) {
	src, err := os.Open(in)
	must(err)
	defer src.Close()
	var ropts []rqm.StreamReaderOption
	if workers > 0 {
		ropts = append(ropts, rqm.WithStreamReaderWorkers(workers))
	}
	r, err := rqm.NewReader(bufio.NewReaderSize(src, 1<<20), ropts...)
	must(err)
	hdr := r.Header()

	dst, err := os.Create(out)
	must(err)
	if len(hdr.Dims) > 0 {
		// Shape known up front: stream samples directly to disk. A stream
		// that breaks the shape's promise leaves no field file behind.
		bw := bufio.NewWriterSize(dst, 1<<20)
		_, err = r.WriteField(bw)
		if err == nil {
			err = bw.Flush()
		}
		if cerr := dst.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			os.Remove(out)
		}
		must(err)
		fmt.Printf("decompressed %s -> %s (field %q, dims %v, %d values, streamed)\n",
			in, out, hdr.Name, hdr.Dims, r.Values())
		return
	}
	f, err := r.ReadAll()
	if err == nil {
		_, err = f.WriteTo(dst)
	}
	if cerr := dst.Close(); err == nil {
		err = cerr
	}
	must(err)
	fmt.Printf("decompressed %s -> %s (field %q, dims %v)\n", in, out, f.Name, f.Dims)
}

func cmdInspect(args []string) {
	fs := flag.NewFlagSet("inspect", flag.ExitOnError)
	in := fs.String("in", "", "compressed file")
	full := fs.Bool("full", false, "also decompress and report value statistics")
	chunks := fs.Bool("chunks", false, "list every chunk of a chunked container")
	must(fs.Parse(args))
	if *in == "" {
		fatal(fmt.Errorf("inspect: -in is required"))
	}
	if chunked, _ := sniffChunked(*in); chunked {
		inspectChunked(*in, *full, *chunks)
		return
	}
	blob, err := os.ReadFile(*in)
	must(err)
	info, err := rqm.Inspect(blob)
	must(err)
	codecName := info.CodecName
	if codecName == "" {
		codecName = fmt.Sprintf("unregistered id %d", info.CodecID)
	}
	fmt.Printf("container: %d bytes, envelope v%d, codec %s (payload %d bytes)\n",
		len(blob), info.Version, codecName, info.PayloadBytes)
	fmt.Printf("field: %q dims=%v precision=float%d\n", info.FieldName, info.Dims, info.Prec.Bits())
	if !*full {
		return
	}
	f, err := rqm.Decompress(blob)
	must(err)
	lo, hi := f.ValueRange()
	fmt.Printf("values: %d, range [%g, %g]\n", f.Len(), lo, hi)
	fmt.Printf("effective ratio vs original precision: %.2fx\n",
		float64(f.OriginalBytes())/float64(len(blob)))
}

// inspectChunked describes a chunked container through its trailer index —
// no payload is decoded unless -full asks for value statistics.
func inspectChunked(in string, full, listChunks bool) {
	fh, err := os.Open(in)
	must(err)
	defer fh.Close()
	size, _ := fh.Seek(0, io.SeekEnd)
	idx, err := rqm.ReadStreamIndex(fh)
	must(err)
	h := idx.Header
	codecName := fmt.Sprintf("unregistered id %d", h.CodecID)
	if c, err := rqm.CodecByID(h.CodecID); err == nil {
		codecName = c.Name()
	}
	fmt.Printf("container: %d bytes, chunked stream v2, codec %s\n", size, codecName)
	fmt.Printf("field: %q dims=%v precision=float%d\n", h.Name, h.Dims, h.Prec.Bits())
	fmt.Printf("chunks: %d x <=%d values (%d values total)\n",
		len(idx.Entries), h.ChunkValues, idx.TotalValues)
	loB, hiB := boundRange(idx.Entries)
	if loB != hiB {
		fmt.Printf("per-chunk bounds: [%.6g, %.6g]\n", loB, hiB)
	} else if len(idx.Entries) > 0 {
		fmt.Printf("error bound: %.6g (abs)\n", loB)
	}
	if listChunks {
		for i, e := range idx.Entries {
			fmt.Printf("  chunk %4d: offset %10d, %8d values, %8d bytes, bound %.6g\n",
				i, e.Offset, e.Values, e.RecordBytes, e.AbsBound)
		}
	}
	if full {
		blob, err := os.ReadFile(in)
		must(err)
		f, err := rqm.Decompress(blob)
		must(err)
		lo, hi := f.ValueRange()
		fmt.Printf("values: %d, range [%g, %g]\n", f.Len(), lo, hi)
		fmt.Printf("effective ratio vs original precision: %.2fx\n",
			float64(f.OriginalBytes())/float64(len(blob)))
	}
}

// boundRange scans index entries for the min/max per-chunk bound.
func boundRange(entries []rqm.StreamIndexEntry) (lo, hi float64) {
	for i, e := range entries {
		if i == 0 || e.AbsBound < lo {
			lo = e.AbsBound
		}
		if e.AbsBound > hi {
			hi = e.AbsBound
		}
	}
	return lo, hi
}

// sniffChunked peeks at a file's first bytes for the chunked signature.
func sniffChunked(path string) (bool, error) {
	fh, err := os.Open(path)
	if err != nil {
		return false, err
	}
	defer fh.Close()
	head := make([]byte, 5)
	if _, err := io.ReadFull(fh, head); err != nil {
		return false, nil // too short to be chunked; let the normal path report
	}
	return rqm.IsChunkedContainer(head), nil
}

// remoteParams carries the compress flags routed to a rqserved instance.
type remoteParams struct {
	codec, predictor, mode, lossless string
	eb                               float64
	stream                           bool
	threshold                        int64
	chunk                            int
	targetRatio, targetPSNR          float64
	sampleRate                       float64
	adaptiveSpace                    bool
	verify                           bool
}

// compressRemote ships the field file to a rqserved instance and streams the
// container back — the CLI as a thin client.
func compressRemote(base, in, out string, p remoteParams) {
	c, err := client.New(base)
	must(err)
	params := client.CompressParams{
		Codec: p.codec, Predictor: p.predictor, Mode: p.mode, Lossless: p.lossless,
		ErrorBound: p.eb, ChunkValues: p.chunk,
		TargetRatio: p.targetRatio, TargetPSNR: p.targetPSNR,
		SampleRate: p.sampleRate, AdaptiveSpace: p.adaptiveSpace,
	}
	// The request body streams from disk with no declared length, so the
	// server cannot size-detect: decide streaming here, mirroring the local
	// threshold rule.
	params.Stream = p.stream
	if !params.Stream && p.threshold > 0 {
		if st, err := os.Stat(in); err == nil && st.Size() >= p.threshold {
			params.Stream = true
		}
	}
	adaptive := p.targetRatio > 0 || p.targetPSNR > 0
	if params.Stream && !adaptive && strings.EqualFold(p.mode, "rel") {
		// Streamed REL needs the stream-global range; scan it locally.
		params.HasValueRange = true
		params.ValueLo, params.ValueHi = scanValueRange(in)
	}

	src, err := os.Open(in)
	must(err)
	defer src.Close()
	dst, err := os.Create(out)
	must(err)
	bw := bufio.NewWriterSize(dst, 1<<20)
	info, err := c.Compress(context.Background(), bufio.NewReaderSize(src, 1<<20), bw, params)
	if err == nil {
		err = bw.Flush()
	}
	if cerr := dst.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(out)
	}
	must(err)
	st, _ := os.Stat(out)
	if info.Streamed {
		fmt.Printf("remote-compressed %s -> %s (%d bytes, streamed via %s)\n", in, out, st.Size(), base)
	} else {
		fmt.Printf("remote-compressed %s -> %s (%d bytes, codec %s, ratio %.2fx) via %s\n",
			in, out, st.Size(), info.Codec, info.Ratio, base)
	}
	if p.verify {
		verifyRemoteOutput(in, out, p)
	}
}

// verifyRemoteOutput re-reads both files and checks the served container
// locally — the same end-to-end guarantee -verify gives the local paths.
func verifyRemoteOutput(in, out string, p remoteParams) {
	orig := readField(in)
	blob, err := os.ReadFile(out)
	must(err)
	dec, err := rqm.Decompress(blob)
	must(err)
	adaptive := p.targetRatio > 0 || p.targetPSNR > 0
	if adaptive {
		// Adaptive runs have no single user bound; hold the container to the
		// loosest per-chunk bound it recorded.
		idx, err := rqm.ReadStreamIndex(bytes.NewReader(blob))
		must(err)
		if _, maxB := boundRange(idx.Entries); maxB > 0 {
			must(rqm.VerifyErrorBound(orig, dec, rqm.ABS, maxB*(1+1e-12)))
		}
	} else {
		m, err := rqm.ParseErrorMode(p.mode)
		must(err)
		must(rqm.VerifyErrorBound(orig, dec, m, p.eb))
	}
	psnr, err := rqm.PSNR(orig, dec)
	must(err)
	fmt.Printf("  verified: bound holds, PSNR %.2f dB\n", psnr)
}

// decompressRemote streams a container to a rqserved instance and the field
// back to disk.
func decompressRemote(base, in, out string) {
	c, err := client.New(base)
	must(err)
	src, err := os.Open(in)
	must(err)
	defer src.Close()
	dst, err := os.Create(out)
	must(err)
	bw := bufio.NewWriterSize(dst, 1<<20)
	err = c.Decompress(context.Background(), bufio.NewReaderSize(src, 1<<20), bw)
	if err == nil {
		err = bw.Flush()
	}
	if cerr := dst.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(out)
	}
	must(err)
	st, _ := os.Stat(out)
	fmt.Printf("remote-decompressed %s -> %s (%d bytes) via %s\n", in, out, st.Size(), base)
}

// ---------------------------------------------------------------------------
// Dataset archive subcommands (remote only)

// storeClient builds the client for the dataset subcommands, which have no
// local mode: the archive lives behind a rqserved -store-dir instance.
func storeClient(base string) *client.Client {
	if base == "" {
		fatal(fmt.Errorf("dataset commands need -remote URL (a rqserved instance with -store-dir)"))
	}
	c, err := client.New(base)
	must(err)
	return c
}

func cmdPut(args []string) {
	fs := flag.NewFlagSet("put", flag.ExitOnError)
	codecNames := strings.Join(rqm.CodecNames(), "|")
	var (
		remote    = fs.String("remote", "", "rqserved base URL (required)")
		name      = fs.String("name", "", "dataset name (required)")
		in        = fs.String("in", "", "input .rqmf field file (required)")
		codecName = fs.String("codec", "", codecNames+" (empty = server default)")
		predName  = fs.String("predictor", "", "prediction scheme (empty = server default)")
		mode      = fs.String("mode", "", "abs|rel (empty = server default)")
		eb        = fs.Float64("eb", 0, "error bound, mode semantics (0 = server default)")
		lossless  = fs.String("lossless", "", "none|rle|lz77|flate (empty = server default)")
		chunk     = fs.Int("chunk", 0, "chunk size in values (0 = default)")
		sample    = fs.Float64("sample", 0, "profile sampling rate (0 = server default)")
		seed      = fs.Uint64("seed", 0, "profile sampling seed (0 = server default)")
		exact     = fs.Bool("exact", false, "also store a lossless residual layer for bit-exact reads")
		resBack   = fs.String("residual-backend", "", "residual entropy coder (with -exact; empty = server default)")
	)
	must(fs.Parse(args))
	if *name == "" || *in == "" {
		fatal(fmt.Errorf("put: -name and -in are required"))
	}
	if *resBack != "" && !*exact {
		fatal(fmt.Errorf("put: -residual-backend needs -exact"))
	}
	c := storeClient(*remote)
	src, err := os.Open(*in)
	must(err)
	defer src.Close()
	info, err := c.PutDataset(context.Background(), *name, bufio.NewReaderSize(src, 1<<20),
		client.PutDatasetParams{
			Codec: *codecName, Predictor: *predName, Mode: *mode, Lossless: *lossless,
			ErrorBound: *eb, ChunkValues: *chunk, SampleRate: *sample, Seed: *seed,
			Exact: *exact, ResidualBackend: *resBack,
		})
	must(err)
	fmt.Printf("put %s: %d values in %d chunks, %d -> %d bytes (ratio %.2fx, %s %g, est PSNR %.2f dB)\n",
		info.Name, info.TotalValues, info.Chunks, info.OriginalBytes, info.ContainerBytes,
		info.Ratio, info.Mode, info.ErrorBound, float64(info.EstPSNR))
	if info.Exact {
		fmt.Printf("  exact tier: %d residual bytes (%s), lossy+residual = %.1f%% of the original\n",
			info.ResidualBytes, info.ResidualBackend,
			100*float64(info.ContainerBytes+info.ResidualBytes)/float64(info.OriginalBytes))
	}
}

func cmdGet(args []string) {
	fs := flag.NewFlagSet("get", flag.ExitOnError)
	var (
		remote = fs.String("remote", "", "rqserved base URL (required)")
		name   = fs.String("name", "", "dataset name (required)")
		out    = fs.String("out", "", "output file (required)")
		off    = fs.Int64("off", 0, "slice start element (with -len)")
		length = fs.Int64("len", 0, "slice length in elements (0 = whole dataset)")
		raw    = fs.Bool("raw", false, "fetch the compressed container instead of the field")
		exact  = fs.Bool("exact", false, "read the lossless tier: the original bit for bit (needs a residual layer)")
	)
	must(fs.Parse(args))
	if *name == "" || *out == "" {
		fatal(fmt.Errorf("get: -name and -out are required"))
	}
	if *raw && *length > 0 {
		fatal(fmt.Errorf("get: -raw and -len are mutually exclusive"))
	}
	if *raw && *exact {
		fatal(fmt.Errorf("get: -raw and -exact are mutually exclusive"))
	}
	c := storeClient(*remote)
	dst, err := os.Create(*out)
	must(err)
	bw := bufio.NewWriterSize(dst, 1<<20)
	switch {
	case *length > 0 && *exact:
		err = c.SliceDatasetExact(context.Background(), *name, *off, *length, bw)
	case *length > 0:
		err = c.SliceDataset(context.Background(), *name, *off, *length, bw)
	case *raw:
		err = c.GetDatasetContainer(context.Background(), *name, bw)
	case *exact:
		err = c.GetDatasetExact(context.Background(), *name, bw)
	default:
		err = c.GetDataset(context.Background(), *name, bw)
	}
	if err == nil {
		err = bw.Flush()
	}
	if cerr := dst.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(*out)
	}
	must(err)
	st, _ := os.Stat(*out)
	if *length > 0 {
		fmt.Printf("got %s[%d:%d] -> %s (%d bytes)\n", *name, *off, *off+*length, *out, st.Size())
	} else {
		fmt.Printf("got %s -> %s (%d bytes)\n", *name, *out, st.Size())
	}
}

func cmdLs(args []string) {
	fs := flag.NewFlagSet("ls", flag.ExitOnError)
	remote := fs.String("remote", "", "rqserved base URL (required)")
	must(fs.Parse(args))
	c := storeClient(*remote)
	infos, err := c.ListDatasets(context.Background())
	must(err)
	if len(infos) == 0 {
		fmt.Println("no datasets")
		return
	}
	fmt.Printf("%-24s %-14s %10s %12s %8s %6s %s\n",
		"NAME", "DIMS", "VALUES", "BYTES", "RATIO", "GEN", "BOUND")
	for _, d := range infos {
		fmt.Printf("%-24s %-14s %10d %12d %7.2fx %6d %s %g\n",
			d.Name, fmt.Sprint(d.Dims), d.TotalValues, d.ContainerBytes, d.Ratio,
			d.Generation, d.Mode, d.ErrorBound)
	}
}

func cmdRm(args []string) {
	fs := flag.NewFlagSet("rm", flag.ExitOnError)
	var (
		remote = fs.String("remote", "", "rqserved base URL (required)")
		name   = fs.String("name", "", "dataset name (required)")
	)
	must(fs.Parse(args))
	if *name == "" {
		fatal(fmt.Errorf("rm: -name is required"))
	}
	c := storeClient(*remote)
	must(c.DeleteDataset(context.Background(), *name))
	fmt.Printf("removed %s\n", *name)
}

func cmdRecompact(args []string) {
	fs := flag.NewFlagSet("recompact", flag.ExitOnError)
	var (
		remote      = fs.String("remote", "", "rqserved base URL (required)")
		name        = fs.String("name", "", "dataset name (required)")
		targetRatio = fs.Float64("target-ratio", 0, "recompact toward this compression ratio")
		targetPSNR  = fs.Float64("target-psnr", 0, "recompact toward this PSNR in dB")
		adaptSpace  = fs.Bool("adaptive-space", false, "rewrite with variance-guided spatial partitioning (recorded in the manifest)")
	)
	must(fs.Parse(args))
	if *name == "" {
		fatal(fmt.Errorf("recompact: -name is required"))
	}
	if (*targetRatio > 0) == (*targetPSNR > 0) {
		fatal(fmt.Errorf("recompact: need exactly one of -target-ratio, -target-psnr"))
	}
	target := client.SolveTarget{Kind: "ratio", Value: *targetRatio}
	if *targetPSNR > 0 {
		target = client.SolveTarget{Kind: "psnr", Value: *targetPSNR}
	}
	var ropts []client.RecompactOption
	if *adaptSpace {
		ropts = append(ropts, client.WithAdaptiveSpace())
	}
	c := storeClient(*remote)
	rr, err := c.RecompactDataset(context.Background(), *name, target, ropts...)
	must(err)
	if rr.Skipped {
		fmt.Printf("recompact %s: skipped (%s)\n", rr.Name, rr.Reason)
		return
	}
	fmt.Printf("recompacted %s: bound %.6g -> %.6g, ratio %.2fx -> %.2fx (est PSNR %.2f dB, generation %d)\n",
		rr.Name, rr.OldBound, rr.NewBound, rr.OldRatio, rr.NewRatio, float64(rr.EstPSNR), rr.Generation)
}

// cmdPromote adds a lossless residual layer to a stored dataset: the local
// file must be the true original (the server verifies it against the
// dataset's content hash before building the residual).
func cmdPromote(args []string) {
	fs := flag.NewFlagSet("promote", flag.ExitOnError)
	var (
		remote = fs.String("remote", "", "rqserved base URL (required)")
		name   = fs.String("name", "", "dataset name (required)")
		in     = fs.String("in", "", "the original .rqmf field file (required)")
	)
	must(fs.Parse(args))
	if *name == "" || *in == "" {
		fatal(fmt.Errorf("promote: -name and -in are required"))
	}
	c := storeClient(*remote)
	src, err := os.Open(*in)
	must(err)
	defer src.Close()
	info, err := c.PromoteDataset(context.Background(), *name, bufio.NewReaderSize(src, 1<<20))
	must(err)
	fmt.Printf("promoted %s: %d residual bytes (%s), generation %d — exact reads enabled\n",
		info.Name, info.ResidualBytes, info.ResidualBackend, info.Generation)
}

// cmdDemote drops a dataset's residual layer, keeping the lossy base.
func cmdDemote(args []string) {
	fs := flag.NewFlagSet("demote", flag.ExitOnError)
	var (
		remote = fs.String("remote", "", "rqserved base URL (required)")
		name   = fs.String("name", "", "dataset name (required)")
	)
	must(fs.Parse(args))
	if *name == "" {
		fatal(fmt.Errorf("demote: -name is required"))
	}
	c := storeClient(*remote)
	info, err := c.DemoteDataset(context.Background(), *name)
	must(err)
	if info.Exact {
		fmt.Printf("demote %s: residual layer still present (unexpected)\n", info.Name)
		return
	}
	fmt.Printf("demoted %s: residual layer dropped, lossy base kept (generation %d)\n",
		info.Name, info.Generation)
}

// cmdScrub starts one background integrity pass on a shard's archive and —
// unless -nowait — polls status until it finishes, then prints the report.
func cmdScrub(args []string) {
	fs := flag.NewFlagSet("scrub", flag.ExitOnError)
	remote := fs.String("remote", "", "rqserved base URL (required; scrub runs where the archive lives)")
	deep := fs.Bool("deep", false, "fully decode every chunk and re-hash each container against its commit-time SHA-256")
	nowait := fs.Bool("nowait", false, "start the pass and return immediately (poll with scrub -status)")
	status := fs.Bool("status", false, "report the current/last pass instead of starting one")
	must(fs.Parse(args))
	if *remote == "" {
		fatal(fmt.Errorf("scrub: -remote URL is required (an rqserved shard)"))
	}
	c := storeClient(*remote)
	ctx := context.Background()
	st, err := (*client.ScrubStatus)(nil), error(nil)
	if *status {
		st, err = c.ScrubStatus(ctx)
	} else {
		st, err = c.StartScrub(ctx, *deep)
	}
	must(err)
	if !*status && !*nowait {
		for st.State == "running" {
			time.Sleep(200 * time.Millisecond)
			st, err = c.ScrubStatus(ctx)
			must(err)
		}
	}
	printScrubStatus(st)
	if st.State == "failed" || (st.Report != nil && len(st.Report.Issues) > 0) {
		os.Exit(1)
	}
}

func printScrubStatus(st *client.ScrubStatus) {
	mode := "shallow"
	if st.Deep {
		mode = "deep"
	}
	switch st.State {
	case "idle":
		fmt.Println("scrub: no pass has run")
		return
	case "running":
		fmt.Printf("scrub (%s): running, %d/%d datasets scanned (current %s)\n",
			mode, st.Scanned, st.Total, st.Current)
		return
	case "failed":
		fmt.Printf("scrub (%s): FAILED: %s\n", mode, st.Error)
		return
	}
	r := st.Report
	if r == nil {
		fmt.Printf("scrub (%s): %s\n", mode, st.State)
		return
	}
	fmt.Printf("scrub (%s): %d datasets, %d chunks verified, %d/%d bytes verified, %d quarantined (%d bytes)\n",
		mode, r.Datasets, r.ChunksVerified, r.BytesVerified, r.BytesScanned,
		r.DatasetsQuarantined, r.BytesQuarantined)
	for _, issue := range r.Issues {
		disposition := "left in place"
		if issue.Quarantined {
			disposition = "quarantined"
		}
		fmt.Printf("  %s (%d bytes, %s): %s\n", issue.Name, issue.Bytes, disposition, issue.Reason)
	}
}

// ---------------------------------------------------------------------------
// Cluster subcommands (rqrouter only)

func cmdCluster(args []string) {
	fs := flag.NewFlagSet("cluster", flag.ExitOnError)
	remote := fs.String("remote", "", "rqrouter base URL (required)")
	must(fs.Parse(args))
	if *remote == "" {
		fatal(fmt.Errorf("cluster: -remote URL is required (an rqrouter instance)"))
	}
	c := storeClient(*remote)
	cs, err := c.RouterStatus(context.Background())
	must(err)
	fmt.Printf("cluster: %d/%d shards healthy, R=%d (quorum %d), %d vnodes/shard (%d ring points)\n",
		cs.Healthy, len(cs.Shards), cs.Replicas, cs.Quorum, cs.VNodes, cs.RingPoints)
	fmt.Printf("%-32s %-8s %8s %6s %s\n", "SHARD", "STATE", "DATASETS", "FAILS", "LAST ERROR")
	for _, sh := range cs.Shards {
		state := "up"
		if !sh.Healthy {
			state = "down"
		}
		fmt.Printf("%-32s %-8s %8d %6d %s\n", sh.URL, state, sh.Datasets, sh.ConsecutiveFailures, sh.LastError)
	}
}

func cmdRebalance(args []string) {
	fs := flag.NewFlagSet("rebalance", flag.ExitOnError)
	remote := fs.String("remote", "", "rqrouter base URL (required)")
	must(fs.Parse(args))
	if *remote == "" {
		fatal(fmt.Errorf("rebalance: -remote URL is required (an rqrouter instance)"))
	}
	c := storeClient(*remote)
	rr, err := c.Rebalance(context.Background())
	must(err)
	fmt.Printf("rebalanced %d datasets across %d live shards: %d copied (%d bytes moved, raw — no recompression), %d already placed, %d stray removed, %d conflicts, %d failed\n",
		rr.Datasets, rr.ShardsLive, rr.Copied, rr.BytesMoved, rr.Skipped, rr.Removed, rr.Conflicts, rr.Failed)
}

// scanValueRange streams a field file once to find its global value range
// without materializing the samples — the pre-pass that lets streamed REL
// compression enforce the same absolute bound as whole-buffer REL.
func scanValueRange(path string) (lo, hi float64) {
	fh, err := os.Open(path)
	must(err)
	defer fh.Close()
	prec, _, err := grid.ReadHeader(fh)
	must(err)
	br := bufio.NewReaderSize(fh, 1<<20)
	buf := make([]byte, 4096*prec.Bits()/8)
	vals := make([]float64, 0, 4096)
	lo, hi = math.Inf(1), math.Inf(-1)
	for {
		n, rerr := io.ReadFull(br, buf)
		for _, v := range grid.DecodeSamples(vals, prec, buf[:n]) {
			if v < lo { // not min/max: a NaN sample must not become the range
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if rerr == io.EOF || rerr == io.ErrUnexpectedEOF {
			break
		}
		must(rerr)
	}
	if lo > hi { // empty field file
		lo, hi = 0, 0
	}
	return lo, hi
}

func readField(path string) *grid.Field {
	in, err := os.Open(path)
	must(err)
	defer in.Close()
	f, err := grid.ReadFrom(in)
	must(err)
	if f.Name == "" {
		f.Name = path
	}
	return f
}

func must(err error) {
	if err != nil {
		fatal(err)
	}
}

// exit is swapped out by tests to observe usage errors without killing the
// test binary.
var exit = os.Exit

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rqc:", err)
	exit(1)
}
