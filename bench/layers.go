package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"rqm"
	"rqm/internal/ans"
	"rqm/internal/bitio"
	"rqm/internal/codec"
	"rqm/internal/compressor"
	"rqm/internal/core"
	"rqm/internal/grid"
	"rqm/internal/huffman"
	"rqm/internal/lz77"
	"rqm/internal/partition"
	"rqm/internal/predictor"
	"rqm/internal/residual"
	"rqm/internal/rle"
	"rqm/internal/transform"
	"rqm/internal/tuner"
)

// layerDef names one per-layer metric. The layer is the module name before
// the first dot. A workload's traced run reports every metric; a layer the
// replay was not seen to touch (see observed) is not measured and reports 0.
type layerDef struct {
	name, unit, better string
}

var layerMetrics = buildLayerMetrics()

func buildLayerMetrics() []layerDef {
	var out []layerDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			out = append(out, layerDef{n, unit, better})
		}
	}
	each := func(prefix string, suffixes ...string) []string {
		var names []string
		for _, s := range suffixes {
			names = append(names, prefix+"."+s)
		}
		return names
	}
	verbs4 := []string{"write", "read", "slice", "model"}
	add("MB/s", "higher", "datagen.synth_mb_s", "grid.write_mb_s", "grid.read_mb_s")
	add("ms", "lower", each("core.profile_cold_ms", "lorenzo", "interpolation", "regression")...)
	add("us", "lower", "core.estimate_us", "core.solve_psnr_us", "core.solve_ratio_us")
	add("MB/s", "higher", each("compressor.predict_mb_s", "lorenzo", "lorenzo2", "interpolation", "interpolation-cubic", "regression")...)
	add("MB/s", "higher", each("compressor.encode_mb_s", "huffman", "huffman-ilv", "tans")...)
	add("MB/s", "higher", each("compressor.lossless_mb_s", "rle", "lz77", "flate")...)
	add("MB/s", "higher", "compressor.compress_mb_s")
	add("MB/s", "higher", each("compressor.decompress_mb_s", "huffman", "huffman-ilv", "tans")...)
	add("count", "lower", "compressor.compress_allocs_per_op")
	add("MB/s", "higher", "transform.compress_mb_s", "transform.decompress_mb_s")
	add("ms", "lower", "transform.profile_cold_ms")
	add("MB/s", "higher", "huffman.encode_mb_s", "huffman.decode_mb_s", "huffman.decode_ilv_mb_s",
		"ans.encode_mb_s", "ans.decode_mb_s", "lz77.encode_mb_s", "lz77.decode_mb_s", "rle.encode_mb_s", "rle.decode_mb_s")
	add("us", "lower", "codec.seal_open_us")
	add("MB/s", "higher", "codec.chunk_write_mb_s", "codec.chunk_verify_mb_s")
	add("us", "lower", "codec.index_load_us")
	add("MB/s", "higher", "codec.decode_chunk_mb_s")
	add("MB/s", "higher", each("stream.write_mb_s", "w1", "w2")...)
	add("MB/s", "higher", each("stream.read_mb_s", "w1", "w2")...)
	add("MB/s", "higher", "stream.write_adaptive_mb_s")
	add("us", "lower", "partition.fixed_plan_us")
	add("ms", "lower", "partition.quadtree_plan_ms")
	add("count", "lower", "partition.quadtree_regions")
	add("MB/s", "higher", "residual.compute_mb_s", "residual.apply_mb_s")
	add("MB/s", "higher", each("residual.encode_mb_s", "huffman", "ans", "lz77")...)
	add("us", "lower", "residual.block_read_us")
	add("MB/s", "higher", "residual.original_hash_mb_s")
	add("B/B", "lower", "residual.bytes_per_user_byte")
	add("ms", "lower", "store.put_commit_ms")
	add("MB/s", "higher", "store.put_stream_mb_s")
	add("us", "lower", "store.manifest_parse_us")
	add("ms", "lower", "store.read_range_ms", "store.read_range_exact_ms")
	add("count", "lower", "store.chunks_per_slice")
	add("fraction", "higher", "store.decoded_per_returned")
	add("B", "lower", "store.read_bytes_per_read")
	add("MB/s", "higher", "store.verify_shallow_mb_s", "store.verify_deep_mb_s", "store.scrub_mb_s")
	add("us", "lower", "service.hop_us", "service.stat_us", "service.estimate_us")
	add("ms", "lower", "service.profile_cold_ms")
	add("fraction", "higher", "service.profile_hit_frac")
	add("fraction", "lower", "service.rejected_frac")
	add("ms", "lower", each("service.serve_ms", verbs4...)...)
	add("ms", "lower", each("service.overhead_ms", "write", "read", "slice")...)
	add("ms", "lower", each("client.self_ms", verbs4...)...)
	add("ms", "lower", each("router.self_ms", verbs4...)...)
	add("ms", "lower", "router.proxy_overhead_ms", "router.put_fanout_ms", "router.recompact_sync_ms")
	add("MB/s", "higher", "router.rebalance_mb_s")
	add("count", "lower", "router.failovers", "router.read_repairs")
	add("ms", "lower", "tuner.select_predictor_ms", "tuner.budget_plan_ms", "tuner.partition_opt_ms", "tuner.tae_bound_ms")
	add("x", "higher", "tuner.tae_over_model_x")
	add("1/s", "higher", "loadgen.ops_per_s")
	add("ms", "lower", "loadgen.write_p95_ms", "loadgen.model_p95_ms")
	add("fraction", "lower", "trace.overhead_frac")
	return out
}

// layerPass is the direct-call half of a traced run: it calls each layer's
// public functions on the workload's own corpus, one span per call, and
// turns the timings into the per-layer metrics. Layers are timed from
// outside; spans inside the program are a later issue.
type layerPass struct {
	w    *workload
	obs  observed
	cfg  config
	corp *corpus
	rec  *recorder
	dir  string
	m    map[string]float64
	// direct holds, per verb, the steps a handler takes for that verb called
	// directly (no HTTP), in ms: what the shard's span should add up to.
	direct map[string]map[string]float64
}

const (
	heavyReps = 3  // calls that take tens of ms
	lightReps = 15 // calls that take a millisecond or less
)

// timed runs fn reps times under spans called name and returns the median
// duration.
func (lp *layerPass) timed(name string, reps int, fn func() error) (time.Duration, error) {
	ds := make([]time.Duration, 0, reps)
	for i := 0; i < reps; i++ {
		id := lp.rec.begin(name, depthCall)
		t0 := time.Now()
		err := fn()
		d := time.Since(t0)
		lp.rec.end(id)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		ds = append(ds, d)
	}
	return medianDur(ds), nil
}

// errSkip leaves a field out of a measurement: a predictor that does not
// support the field's rank.
var errSkip = errors.New("not applicable to this field")

// overFields measures fn on every corpus field and returns the corpus
// throughput in uncompressed MB/s (total bytes over total median time) and
// the mean per-field median in ms. A positive duration returned by fn
// replaces the call's wall time (a stage time the call itself reports).
func (lp *layerPass) overFields(name string, reps int, fn func(i int, f *rqm.Field) (time.Duration, error)) (mbps, meanMs float64, err error) {
	var bytes int64
	var total time.Duration
	n := 0
	for i, f := range lp.corp.fields {
		var reported []time.Duration
		d, err := lp.timed(name, reps, func() error {
			r, err := fn(i, f)
			reported = append(reported, r)
			return err
		})
		if errors.Is(err, errSkip) {
			continue
		}
		if err != nil {
			return 0, 0, err
		}
		if r := medianDur(reported); r > 0 {
			d = r
		}
		bytes += f.OriginalBytes()
		total += d
		n++
	}
	if total <= 0 {
		return 0, 0, nil
	}
	return float64(bytes) / 1e6 / total.Seconds(), total.Seconds() * 1e3 / float64(n), nil
}

func mbps(bytes int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / 1e6 / d.Seconds()
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// relOpts is the compressor configuration every dataset is written with.
func relOpts() compressor.Options {
	return compressor.Options{Predictor: predictor.Lorenzo, Mode: compressor.REL, ErrorBound: relBound}
}

func (lp *layerPass) absBound(i int) float64 { return relBound * (lp.corp.hi[i] - lp.corp.lo[i]) }

// Library-side layers: grid, core, compressor, transform, the symbol
// coders, codec, stream, partition, tuner.

func (lp *layerPass) gridLayer() error {
	blobs := make([][]byte, len(lp.corp.fields))
	var buf bytes.Buffer
	w, _, err := lp.overFields("grid.write", heavyReps, func(i int, f *rqm.Field) (time.Duration, error) {
		buf.Reset()
		_, err := f.WriteTo(&buf)
		blobs[i] = append(blobs[i][:0], buf.Bytes()...)
		return 0, err
	})
	if err != nil {
		return err
	}
	r, _, err := lp.overFields("grid.read", heavyReps, func(i int, _ *rqm.Field) (time.Duration, error) {
		_, err := grid.ReadFrom(bytes.NewReader(blobs[i]))
		return 0, err
	})
	lp.m["grid.write_mb_s"], lp.m["grid.read_mb_s"] = w, r
	return err
}

func (lp *layerPass) coreLayer() error {
	for _, k := range []predictor.Kind{predictor.Lorenzo, predictor.Interpolation, predictor.Regression} {
		_, mean, err := lp.overFields("core.profile_cold", heavyReps, func(_ int, f *rqm.Field) (time.Duration, error) {
			_, err := core.NewProfile(f, k, core.Options{})
			return 0, err
		})
		if err != nil {
			return err
		}
		lp.m["core.profile_cold_ms."+k.String()] = mean
	}
	p, err := core.NewProfile(lp.corp.fields[0], predictor.Lorenzo, core.Options{})
	if err != nil {
		return err
	}
	abs := lp.absBound(0)
	const batch = 10 // one span per batch: a single estimate is near timer resolution
	per := func(name string, fn func() error) (float64, error) {
		d, err := lp.timed(name, heavyReps, func() error {
			for i := 0; i < batch; i++ {
				if err := fn(); err != nil {
					return err
				}
			}
			return nil
		})
		return us(d) / batch, err
	}
	if lp.m["core.estimate_us"], err = per("core.estimate", func() error { p.EstimateAt(abs); return nil }); err != nil {
		return err
	}
	if lp.m["core.solve_psnr_us"], err = per("core.solve_psnr", func() error { _, err := p.ErrorBoundForPSNR(targetPSNR); return err }); err != nil {
		return err
	}
	lp.m["core.solve_ratio_us"], err = per("core.solve_ratio", func() error { _, err := p.ErrorBoundForRatio(8); return err })
	return err
}

func (lp *layerPass) compressorLayer() error {
	stage := func(metric, span string, opts compressor.Options, pick func(compressor.Stats) time.Duration) error {
		v, _, err := lp.overFields(span, heavyReps, func(_ int, f *rqm.Field) (time.Duration, error) {
			res, err := compressor.Compress(f, opts)
			if err != nil {
				return 0, err
			}
			return pick(res.Stats), nil
		})
		lp.m[metric] = v
		return err
	}
	for _, k := range predictor.Kinds() {
		pred, err := predictor.New(k)
		if err != nil {
			return err
		}
		o := relOpts()
		o.Predictor = k
		v, _, err := lp.overFields("compressor.predict", heavyReps, func(_ int, f *rqm.Field) (time.Duration, error) {
			if !pred.Supports(f.Rank()) {
				return 0, errSkip
			}
			res, err := compressor.Compress(f, o)
			if err != nil {
				return 0, err
			}
			return res.Stats.PredictTime, nil
		})
		if err != nil {
			return err
		}
		lp.m["compressor.predict_mb_s."+k.String()] = v
	}
	entropies := []compressor.EntropyKind{compressor.EntropyHuffman, compressor.EntropyInterleaved, compressor.EntropyTANS}
	for _, e := range entropies {
		o := relOpts()
		o.Entropy = e
		if err := stage("compressor.encode_mb_s."+e.String(), "compressor.encode", o,
			func(s compressor.Stats) time.Duration { return s.EncodeTime }); err != nil {
			return err
		}
		blobs := make([][]byte, len(lp.corp.fields))
		for i, f := range lp.corp.fields {
			res, err := compressor.Compress(f, o)
			if err != nil {
				return err
			}
			blobs[i] = res.Bytes
		}
		v, _, err := lp.overFields("compressor.decompress", heavyReps, func(i int, _ *rqm.Field) (time.Duration, error) {
			_, err := compressor.Decompress(blobs[i])
			return 0, err
		})
		if err != nil {
			return err
		}
		lp.m["compressor.decompress_mb_s."+e.String()] = v
	}
	for _, l := range []compressor.LosslessKind{compressor.LosslessRLE, compressor.LosslessLZ77, compressor.LosslessFlate} {
		o := relOpts()
		o.Lossless = l
		if err := stage("compressor.lossless_mb_s."+l.String(), "compressor.lossless", o,
			func(s compressor.Stats) time.Duration { return s.LosslessTime }); err != nil {
			return err
		}
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	v, _, err := lp.overFields("compressor.compress", heavyReps, func(_ int, f *rqm.Field) (time.Duration, error) {
		_, err := compressor.Compress(f, relOpts())
		return 0, err
	})
	runtime.ReadMemStats(&ms1)
	lp.m["compressor.compress_mb_s"] = v
	lp.m["compressor.compress_allocs_per_op"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(heavyReps*len(lp.corp.fields))
	return err
}

func (lp *layerPass) transformLayer() error {
	blobs := make([][]byte, len(lp.corp.fields))
	c, _, err := lp.overFields("transform.compress", heavyReps, func(i int, f *rqm.Field) (time.Duration, error) {
		res, err := transform.Compress(f, transform.Options{ErrorBound: lp.absBound(i)})
		if err != nil {
			return 0, err
		}
		blobs[i] = res.Bytes
		return 0, nil
	})
	if err != nil {
		return err
	}
	d, _, err := lp.overFields("transform.decompress", heavyReps, func(i int, _ *rqm.Field) (time.Duration, error) {
		_, err := transform.Decompress(blobs[i])
		return 0, err
	})
	if err != nil {
		return err
	}
	_, p, err := lp.overFields("transform.profile_cold", heavyReps, func(_ int, f *rqm.Field) (time.Duration, error) {
		_, err := transform.NewProfile(f, 0, 0, core.Options{})
		return 0, err
	})
	lp.m["transform.compress_mb_s"], lp.m["transform.decompress_mb_s"], lp.m["transform.profile_cold_ms"] = c, d, p
	return err
}

// symbolStream is a quantization-code-like stream, as in
// entropy_bench_test.go: concentrated on the central code with geometric
// tails. One symbol counts as one byte in the coders' MB/s.
func symbolStream(n int, seed uint64) ([]uint32, map[uint32]int64, []byte) {
	syms := make([]uint32, n)
	raw := make([]byte, n)
	freqs := map[uint32]int64{}
	const center = 32768
	h := seed
	for i := range syms {
		h = mix64(h)
		v := center + bits.TrailingZeros64(h|1<<40) // geometric, p = 1/2, capped at 40
		if h>>63 == 1 {
			v = 2*center - v
		}
		syms[i] = uint32(v)
		raw[i] = byte(v - center + 128)
		freqs[syms[i]]++
	}
	return syms, freqs, raw
}

func (lp *layerPass) coderLayers() error {
	n := 1 << 20
	if lp.cfg.scale == rqm.ScaleTiny {
		n = 1 << 14
	}
	syms, freqs, raw := symbolStream(n, key(lp.cfg.seed, 0xc0de))
	out := make([]uint32, n)
	rate := func(metric, span string, fn func() error) error {
		d, err := lp.timed(span, heavyReps, fn)
		lp.m[metric] = mbps(int64(n), d)
		return err
	}

	cb, err := huffman.Build(freqs)
	if err != nil {
		return err
	}
	bw := bitio.NewWriter(n)
	if err := rate("huffman.encode_mb_s", "huffman.encode", func() error { bw.Reset(); return cb.Encode(bw, syms) }); err != nil {
		return err
	}
	payload := bw.Bytes()
	if err := rate("huffman.decode_mb_s", "huffman.decode", func() error { return cb.Decode(bitio.NewReader(payload), out) }); err != nil {
		return err
	}
	ws := make([]*bitio.Writer, huffman.DefaultStreams)
	for i := range ws {
		ws[i] = bitio.NewWriter(0)
	}
	streams, err := cb.EncodeInterleaved(syms, huffman.DefaultStreams, nil, ws)
	if err != nil {
		return err
	}
	if err := rate("huffman.decode_ilv_mb_s", "huffman.decode_ilv", func() error { return cb.DecodeInterleaved(streams, out) }); err != nil {
		return err
	}

	tab, err := ans.Build(freqs)
	if err != nil {
		return err
	}
	defer tab.Release()
	var (
		stream []byte
		states [ans.NumStates]uint32
		bits   uint64
	)
	if err := rate("ans.encode_mb_s", "ans.encode", func() (err error) {
		stream, states, bits, err = tab.Encode(stream[:0], syms, nil)
		return err
	}); err != nil {
		return err
	}
	if err := rate("ans.decode_mb_s", "ans.decode", func() error { return tab.Decode(stream, states, bits, out) }); err != nil {
		return err
	}

	var lz, rl []byte
	if err := rate("lz77.encode_mb_s", "lz77.encode", func() error { lz = lz77.Encode(raw); return nil }); err != nil {
		return err
	}
	if err := rate("lz77.decode_mb_s", "lz77.decode", func() error { _, err := lz77.Decode(lz, n); return err }); err != nil {
		return err
	}
	if err := rate("rle.encode_mb_s", "rle.encode", func() error { rl = rle.Encode(raw); return nil }); err != nil {
		return err
	}
	return rate("rle.decode_mb_s", "rle.decode", func() error { _, err := rle.Decode(rl, n); return err })
}

// container stream-compresses field i the way every dataset is written.
func (lp *layerPass) container(i, workers int) ([]byte, error) {
	var buf bytes.Buffer
	err := lp.streamWrite(&buf, workers, lp.corp.fields[i])
	return buf.Bytes(), err
}

// streamWrite stream-compresses f into w at the archive's bound and chunking.
func (lp *layerPass) streamWrite(w io.Writer, workers int, f *rqm.Field, extra ...rqm.StreamOption) error {
	eng, err := rqm.NewEngine(rqm.WithConcurrency(workers))
	if err != nil {
		return err
	}
	sw, err := eng.NewFieldStreamWriter(w, f, append([]rqm.StreamOption{rqm.WithChunkSize(lp.cfg.chunk)}, extra...)...)
	if err != nil {
		return err
	}
	if err := sw.WriteValues(f.Data); err != nil {
		sw.Close()
		return err
	}
	return sw.Close()
}

func (lp *layerPass) codecLayer() error {
	f := lp.corp.fields[0]
	blob, err := lp.container(0, streamWorkers)
	if err != nil {
		return err
	}
	rs := bytes.NewReader(blob)
	idx, err := codec.LoadIndex(rs)
	if err != nil {
		return err
	}
	d, err := lp.timed("codec.index_load", lightReps, func() error { _, err := codec.LoadIndex(rs); return err })
	if err != nil {
		return err
	}
	lp.m["codec.index_load_us"] = us(d)

	chunks := make([]*codec.Chunk, len(idx.Entries))
	d, err = lp.timed("codec.chunk_verify", heavyReps, func() error {
		for i, e := range idx.Entries {
			if chunks[i], err = codec.ReadChunkAt(rs, e); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	lp.m["codec.chunk_verify_mb_s"] = mbps(int64(len(blob)), d) // container bytes: the CRC walk reads those
	d, err = lp.timed("codec.chunk_write", heavyReps, func() error {
		for _, c := range chunks {
			if _, err := codec.WriteChunk(io.Discard, c); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	lp.m["codec.chunk_write_mb_s"] = mbps(int64(len(blob)), d)
	d, err = lp.timed("codec.decode_chunk", heavyReps, func() error {
		for _, c := range chunks {
			if _, err := codec.DecodeChunk(c); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	lp.m["codec.decode_chunk_mb_s"] = mbps(f.OriginalBytes(), d)

	pc, err := codec.ByID(codec.IDPrediction)
	if err != nil {
		return err
	}
	head, err := grid.FromData("chunk", f.Prec, f.Data[:min(lp.cfg.chunk, f.Len())], min(lp.cfg.chunk, f.Len()))
	if err != nil {
		return err
	}
	payload, err := pc.Compress(head, codec.Options{Mode: compressor.ABS, ErrorBound: lp.absBound(0)})
	if err != nil {
		return err
	}
	d, err = lp.timed("codec.seal_open", lightReps, func() error {
		sealed, err := codec.Seal(codec.IDPrediction, head, payload)
		if err != nil {
			return err
		}
		_, _, err = codec.Open(sealed)
		return err
	})
	lp.m["codec.seal_open_us"] = us(d)
	return err
}

func (lp *layerPass) streamLayer() error {
	for _, workers := range []int{1, 2} {
		blobs := make([][]byte, len(lp.corp.fields))
		w, _, err := lp.overFields("stream.write", heavyReps, func(i int, _ *rqm.Field) (time.Duration, error) {
			var err error
			blobs[i], err = lp.container(i, workers)
			return 0, err
		})
		if err != nil {
			return err
		}
		r, _, err := lp.overFields("stream.read", heavyReps, func(i int, _ *rqm.Field) (time.Duration, error) {
			sr, err := rqm.NewReader(bytes.NewReader(blobs[i]), rqm.WithStreamReaderWorkers(workers))
			if err != nil {
				return 0, err
			}
			defer sr.Close()
			_, err = sr.ReadAll()
			return 0, err
		})
		if err != nil {
			return err
		}
		lp.m[fmt.Sprintf("stream.write_mb_s.w%d", workers)] = w
		lp.m[fmt.Sprintf("stream.read_mb_s.w%d", workers)] = r
	}
	a, _, err := lp.overFields("stream.write_adaptive", heavyReps, func(_ int, f *rqm.Field) (time.Duration, error) {
		return 0, lp.streamWrite(io.Discard, streamWorkers, f, rqm.WithAdaptiveBound(rqm.AdaptiveBound{TargetPSNR: targetPSNR}))
	})
	lp.m["stream.write_adaptive_mb_s"] = a
	return err
}

// partitionEnv is the planning environment of a write of field i.
func (lp *layerPass) partitionEnv(i int) (partition.Env, error) {
	f := lp.corp.fields[i]
	pc, err := codec.ByID(codec.IDPrediction)
	return partition.Env{
		Codec: pc, Copts: codec.Options{Mode: compressor.ABS, ErrorBound: lp.absBound(i)},
		Policy: &partition.AdaptiveBound{TargetPSNR: targetPSNR},
		Prec:   f.Prec, Dims: f.Dims, ChunkValues: lp.cfg.chunk,
	}, err
}

// fixedPlan times the default planner, which every stream write (server puts
// included) runs once per window.
func (lp *layerPass) fixedPlan() error {
	f := lp.corp.fields[0]
	env, err := lp.partitionEnv(0)
	if err != nil {
		return err
	}
	d, err := lp.timed("partition.fixed_plan", lightReps, func() error {
		_, err := partition.FixedSlab{}.Partition(f.Data[:min(lp.cfg.chunk, f.Len())], env)
		return err
	})
	lp.m["partition.fixed_plan_us"] = us(d)
	return err
}

// quadtreePlan times the variance quadtree on the composite field it is
// for, the last of the in-situ corpus.
func (lp *layerPass) quadtreePlan() error {
	i := len(lp.corp.fields) - 1
	env, err := lp.partitionEnv(i)
	if err != nil {
		return err
	}
	var plan partition.Plan
	d, err := lp.timed("partition.quadtree_plan", heavyReps, func() (err error) {
		plan, err = partition.VarianceQuadtree{}.Partition(lp.corp.fields[i].Data, env)
		return err
	})
	lp.m["partition.quadtree_plan_ms"] = ms(d)
	lp.m["partition.quadtree_regions"] = float64(len(plan.Regions))
	return err
}

func (lp *layerPass) tunerLayer() error {
	f := lp.corp.fields[0]
	abs := lp.absBound(0)
	pc, err := codec.ByID(codec.IDPrediction)
	if err != nil {
		return err
	}
	copts := codec.Options{Mode: compressor.ABS, ErrorBound: abs, Predictor: predictor.Lorenzo}
	kinds := []predictor.Kind{predictor.Lorenzo, predictor.Interpolation, predictor.Regression}
	d, err := lp.timed("tuner.select_predictor", heavyReps, func() error {
		_, err := tuner.SelectPredictor(f, kinds, abs, core.Options{})
		return err
	})
	if err != nil {
		return err
	}
	lp.m["tuner.select_predictor_ms"] = ms(d)

	var p *core.Profile
	model, err := lp.timed("tuner.model_bound", heavyReps, func() (err error) {
		if p, err = pc.Profile(f, copts, core.Options{}); err != nil {
			return err
		}
		_, err = p.ErrorBoundForPSNR(targetPSNR)
		return err
	})
	if err != nil {
		return err
	}
	d, err = lp.timed("tuner.budget_plan", heavyReps, func() error {
		_, err := tuner.CompressToBudget(f, p, pc, f.OriginalBytes()/8, 0.2, false, copts)
		return err
	})
	if err != nil {
		return err
	}
	lp.m["tuner.budget_plan_ms"] = ms(d)

	profiles := make([]*core.Profile, len(lp.corp.fields))
	for i, g := range lp.corp.fields {
		if profiles[i], err = pc.Profile(g, copts, core.Options{}); err != nil {
			return err
		}
	}
	d, err = lp.timed("tuner.partition_opt", heavyReps, func() error {
		_, err := tuner.OptimizePartitionsForPSNR(profiles, targetPSNR)
		return err
	})
	if err != nil {
		return err
	}
	lp.m["tuner.partition_opt_ms"] = ms(d)

	// Trial and error over five candidate bounds, the paper's baseline.
	var candidates []float64
	for _, rel := range []float64{1e-4, 3e-4, 1e-3, 3e-3, 1e-2} {
		candidates = append(candidates, rel*(lp.corp.hi[0]-lp.corp.lo[0]))
	}
	d, err = lp.timed("tuner.tae_bound", 1, func() error {
		_, err := tuner.TAESelectErrorBound(f, pc, copts, candidates, targetPSNR)
		return err
	})
	lp.m["tuner.tae_bound_ms"] = ms(d)
	if model > 0 {
		lp.m["tuner.tae_over_model_x"] = float64(d) / float64(model)
	}
	return err
}

// reconOf decodes a container back to values: the reconstruction a residual
// is computed against.
func reconOf(blob []byte) ([]float64, []int, error) {
	rs := bytes.NewReader(blob)
	idx, err := codec.LoadIndex(rs)
	if err != nil {
		return nil, nil, err
	}
	var recon []float64
	blocks := make([]int, len(idx.Entries))
	for i, e := range idx.Entries {
		c, err := codec.ReadChunkAt(rs, e)
		if err != nil {
			return nil, nil, err
		}
		vals, err := codec.DecodeChunk(c)
		if err != nil {
			return nil, nil, err
		}
		blocks[i] = len(vals)
		recon = append(recon, vals...)
	}
	return recon, blocks, nil
}

func (lp *layerPass) residualLayer() error {
	n := len(lp.corp.fields)
	recons := make([][]float64, n)
	blocks := make([][]int, n)
	raws := make([][]byte, n)
	for i := range lp.corp.fields {
		blob, err := lp.container(i, streamWorkers)
		if err != nil {
			return err
		}
		if recons[i], blocks[i], err = reconOf(blob); err != nil {
			return err
		}
	}
	var err error
	if lp.m["residual.compute_mb_s"], _, err = lp.overFields("residual.compute", heavyReps, func(i int, f *rqm.Field) (time.Duration, error) {
		var err error
		raws[i], err = residual.Compute(f.Data, recons[i], f.Prec)
		return 0, err
	}); err != nil {
		return err
	}
	if lp.m["residual.apply_mb_s"], _, err = lp.overFields("residual.apply", heavyReps, func(i int, f *rqm.Field) (time.Duration, error) {
		work := append([]float64(nil), recons[i]...)
		t0 := time.Now()
		err := residual.Apply(work, raws[i], f.Prec)
		return time.Since(t0), err
	}); err != nil {
		return err
	}
	if lp.m["residual.original_hash_mb_s"], _, err = lp.overFields("residual.original_hash", heavyReps, func(_ int, f *rqm.Field) (time.Duration, error) {
		_, err := residual.OriginalHash(f.Data, f.Prec)
		return 0, err
	}); err != nil {
		return err
	}
	for _, backend := range []string{"huffman", "ans", "lz77"} {
		c, err := residual.ByName(backend)
		if err != nil {
			return err
		}
		var encoded, user int64
		v, _, err := lp.overFields("residual.encode", heavyReps, func(i int, f *rqm.Field) (time.Duration, error) {
			n, err := residual.Encode(io.Discard, c, f.Prec, f.Data, recons[i], blocks[i])
			encoded, user = encoded+n, user+f.OriginalBytes()
			return 0, err
		})
		if err != nil {
			return err
		}
		lp.m["residual.encode_mb_s."+backend] = v
		if backend == residual.DefaultBackend {
			lp.m["residual.bytes_per_user_byte"] = float64(encoded) / float64(user)
		}
	}
	c, err := residual.ByName(residual.DefaultBackend)
	if err != nil {
		return err
	}
	var file bytes.Buffer
	f := lp.corp.fields[0]
	if _, err := residual.Encode(&file, c, f.Prec, f.Data, recons[0], blocks[0]); err != nil {
		return err
	}
	rs := bytes.NewReader(file.Bytes())
	d, err := lp.timed("residual.block_read", lightReps, func() error {
		idx, err := residual.LoadIndex(rs)
		if err != nil {
			return err
		}
		_, err = residual.ReadBlock(rs, idx.Header, idx.Blocks[len(idx.Blocks)/2])
		return err
	})
	lp.m["residual.block_read_us"] = us(d)
	return err
}

// observed is what the serial replay showed the workload to touch, taken
// from the system's own counters and the replay's spans, never from the
// workload's definition: it decides which layers the direct-call pass
// measures, so a 0 in the report means "the replay never went there".
type observed struct {
	server    bool // a shard served requests (service.Snapshot: Requests grew)
	router    bool // the router served requests (router.Snapshot: Requests grew)
	residual  bool // the store holds residual layers (Store.ResidualBytes > 0)
	inProcess bool // the model was profiled by a direct library call (core.profile spans)
	transform bool // containers the ops read and rewrote name the transform codec in their header
	quadtree  bool // a replayed write's StreamStats reported partitioner splits
}

func observe(before, after map[string]float64, spanNames map[string]bool) observed {
	grew := func(k string) bool { return after[k] > before[k] }
	return observed{
		server:    grew("service.requests"),
		router:    grew("router.requests"),
		residual:  after["store.residual_bytes"] > 0,
		inProcess: spanNames["core.profile"],
		transform: after["stream.transform_containers"] > 0,
		quadtree:  grew("partition.splits"),
	}
}

// runLayers runs the direct-call pass for the layers the replay touched.
// core, compressor, the symbol coders, codec, stream and the fixed-slab
// planner are under every write and read of every workload.
func runLayers(w *workload, obs observed, cfg config, corp *corpus, rec *recorder, dir string) (m map[string]float64, direct map[string]map[string]float64, err error) {
	lp := &layerPass{w: w, obs: obs, cfg: cfg, corp: corp, rec: rec, dir: dir, m: map[string]float64{}, direct: map[string]map[string]float64{}}
	lp.m["datagen.synth_mb_s"] = mbps(corp.bytes, corp.synth)
	steps := []func() error{lp.coreLayer, lp.compressorLayer, lp.coderLayers, lp.codecLayer, lp.streamLayer, lp.fixedPlan}
	for _, s := range []struct {
		on   bool
		step func() error
	}{
		{obs.transform, lp.transformLayer},
		{obs.quadtree, lp.quadtreePlan},
		{obs.inProcess, lp.tunerLayer},
		{obs.server, lp.gridLayer},
		{obs.server, lp.storeAndServiceLayers},
		{obs.residual, lp.residualLayer},
		{obs.router, lp.routerLayer},
	} {
		if s.on {
			steps = append(steps, s.step)
		}
	}
	if err := os.MkdirAll(filepath.Join(dir, "layers"), 0o755); err != nil {
		return nil, nil, err
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return nil, nil, err
		}
	}
	return lp.m, lp.direct, nil
}
