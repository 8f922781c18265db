package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"rqm"
)

// libraryCodecs is the codec a slot's variant index selects: every field
// meets serial Huffman, interleaved Huffman, tANS and the transform codec,
// so compress sits beside decompress for each entropy kind.
var libraryCodecs = []string{
	rqm.CodecPredictionName, rqm.CodecPredictionILVName, rqm.CodecPredictionTANSName, rqm.CodecTransformName,
}

// libraryTarget is the in-situ application: one caller using the rqm
// library directly. No server, no disk; the "stored artifacts" are the
// compressed containers it keeps in memory.
type libraryTarget struct {
	w     *workload
	cfg   config
	corp  *corpus
	rec   *recorder
	slots []*slot // [field*variants+variant]
	orig  rqm.Field
	// splits sums the partitioner split decisions the writes' StreamStats
	// reported (0 under fixed slabs).
	splits int
}

func newLibraryTarget(w *workload, cfg config, corp *corpus, rec *recorder) (*libraryTarget, error) {
	t := &libraryTarget{w: w, cfg: cfg, corp: corp, rec: rec}
	cs := &clientState{}
	for f := range w.fields {
		for v := 0; v < w.variants; v++ {
			sl := &slot{name: slotName(w, 0, f, v), field: f, codec: libraryCodecs[v%len(libraryCodecs)]}
			if t.mixed(f) {
				sl.codec = rqm.CodecPredictionName
			}
			t.slots = append(t.slots, sl)
			o := op{Field: f, Variant: v, Content: corp.newContent(f, key(cfg.seed, uint64(f), uint64(v), 0x5eed))}
			for _, vb := range []verb{vModel, vWrite} {
				o.Verb = vb
				if _, _, err := t.do(cs, o); err != nil {
					return nil, fmt.Errorf("seeding %s: %s: %w", sl.name, vb, err)
				}
			}
		}
	}
	return t, nil
}

// mixed reports whether field is the smooth+turbulent composite, which is
// written through the variance quadtree with per-region adaptive bounds.
func (t *libraryTarget) mixed(field int) bool { return t.w.fields[field] == fieldMixed }

func (t *libraryTarget) engine(codec string, bound float64) (*rqm.Engine, error) {
	return rqm.NewEngine(rqm.WithCodecName(codec), rqm.WithMode(rqm.ABS), rqm.WithErrorBound(bound),
		rqm.WithConcurrency(streamWorkers))
}

// call times one library call inside an op as a child span.
func (t *libraryTarget) call(name string, fn func() error) error {
	id := t.rec.begin(name, depthCall)
	defer t.rec.end(id)
	return fn()
}

func (t *libraryTarget) do(cs *clientState, o op) (time.Duration, int64, error) {
	sl := t.slots[o.Field*t.w.variants+o.Variant]
	base := t.corp.fields[sl.field]
	switch o.Verb {
	case vModel:
		// Use-case: profile the field cold, solve the bound for a target
		// quality. The write that follows compresses at that bound.
		t.corp.fill(&cs.scratch, sl.field, o.Content)
		var eb float64
		lat, err := timeOp(t.rec, o, func() error {
			eng, err := t.engine(sl.codec, 1)
			if err != nil {
				return err
			}
			var p *rqm.Profile
			if err := t.call("core.profile", func() (err error) { p, err = eng.Profile(&cs.scratch); return err }); err != nil {
				return err
			}
			return t.call("core.solve", func() (err error) { eb, err = p.ErrorBoundForPSNR(targetPSNR); return err })
		})
		if err == nil && !(eb > 0 && !math.IsInf(eb, 0)) {
			err = fmt.Errorf("model solved bound %v", eb)
		}
		if err == nil {
			sl.pending, sl.pendingBound = o.Content, eb
		}
		return lat, 0, err

	case vWrite:
		if sl.pending != o.Content {
			return 0, 0, errors.New("write has no solved bound for its content")
		}
		t.corp.fill(&cs.scratch, sl.field, o.Content)
		sl.out.Reset()
		var stats rqm.StreamStats
		lat, err := timeOp(t.rec, o, func() error {
			eng, err := t.engine(sl.codec, sl.pendingBound)
			if err != nil {
				return err
			}
			opts := []rqm.StreamOption{rqm.WithChunkSize(t.cfg.chunk)}
			if t.mixed(sl.field) {
				part, err := rqm.PartitionerByName("variance-quadtree")
				if err != nil {
					return err
				}
				opts = append(opts, rqm.WithPartitioner(part), rqm.WithAdaptiveBound(rqm.AdaptiveBound{TargetPSNR: targetPSNR}))
			}
			return t.call("stream.write", func() error {
				sw, err := eng.NewFieldStreamWriter(&sl.out, &cs.scratch, opts...)
				if err != nil {
					return err
				}
				if err := sw.WriteValues(cs.scratch.Data); err != nil {
					sw.Close()
					return err
				}
				if err := sw.Close(); err != nil {
					return err
				}
				stats = sw.Stats()
				return nil
			})
		})
		if err == nil && stats.Values != int64(base.Len()) {
			err = fmt.Errorf("wrote %d values, want %d", stats.Values, base.Len())
		}
		if err != nil {
			return lat, 0, err
		}
		sl.ct, sl.bound = o.Content, stats.MaxBound
		t.splits += stats.Splits
		return lat, base.OriginalBytes(), nil

	case vRead:
		var got *rqm.Field
		lat, err := timeOp(t.rec, o, func() error {
			return t.call("stream.read", func() error {
				r, err := rqm.NewReader(bytes.NewReader(sl.out.Bytes()), rqm.WithStreamReaderWorkers(streamWorkers))
				if err != nil {
					return err
				}
				defer r.Close()
				got, err = r.ReadAll()
				return err
			})
		})
		if err == nil {
			t.corp.fill(&t.orig, sl.field, sl.ct)
			switch {
			case !slices.Equal(got.Dims, base.Dims):
				err = fmt.Errorf("dims %v, want %v", got.Dims, base.Dims)
			default:
				err = rqm.VerifyErrorBound(&t.orig, got, rqm.ABS, sl.bound)
			}
		}
		return lat, base.OriginalBytes(), err

	case vSlice:
		var vals []float64
		lat, err := timeOp(t.rec, o, func() error {
			rs := bytes.NewReader(sl.out.Bytes())
			var idx *rqm.StreamIndex
			if err := t.call("codec.load_index", func() (err error) { idx, err = rqm.ReadStreamIndex(rs); return err }); err != nil {
				return err
			}
			lo, hi := o.Off, o.Off+int64(t.cfg.sliceLen)
			start := int64(0)
			for _, e := range idx.Entries {
				end := start + int64(e.Values)
				if end > lo && start < hi {
					var chunk []float64
					if err := t.call("codec.read_chunk", func() (err error) { chunk, err = rqm.ReadStreamChunk(rs, e); return err }); err != nil {
						return err
					}
					vals = append(vals, chunk[max(lo, start)-start:min(hi, end)-start]...)
				}
				start = end
			}
			return nil
		})
		if err == nil && len(vals) != t.cfg.sliceLen {
			err = fmt.Errorf("%d values, want %d", len(vals), t.cfg.sliceLen)
		}
		if err == nil {
			err = checkValues(func(i int) float64 { return t.corp.at(sl.field, sl.ct, int(o.Off)+i) },
				func(i int) float64 { return vals[i] }, len(vals), sl.bound, false)
		}
		return lat, int64(t.cfg.sliceLen * base.Prec.Bits() / 8), err
	}
	return 0, 0, fmt.Errorf("unknown verb %d", o.Verb)
}

// audit compares Profile.EstimateAt at the applied bound with the achieved
// container size and the PSNR measured on the read-back, for the serial
// Huffman and tANS variants of the four plain fields.
func (t *libraryTarget) audit() (ratioErr, psnrErr []float64, err error) {
	var orig rqm.Field
	for f := range t.w.fields {
		if t.mixed(f) {
			continue
		}
		for _, v := range []int{0, 2} {
			if v >= t.w.variants || len(ratioErr) == 8 {
				continue
			}
			sl := t.slots[f*t.w.variants+v]
			t.corp.fill(&orig, sl.field, sl.ct)
			eng, err := t.engine(sl.codec, sl.bound)
			if err != nil {
				return nil, nil, err
			}
			p, err := eng.Profile(&orig)
			if err != nil {
				return nil, nil, fmt.Errorf("audit profile %s: %w", sl.name, err)
			}
			est := p.EstimateAt(sl.bound)
			r, err := rqm.NewReader(bytes.NewReader(sl.out.Bytes()))
			if err != nil {
				return nil, nil, err
			}
			got, err := r.ReadAll()
			r.Close()
			if err != nil {
				return nil, nil, fmt.Errorf("audit read %s: %w", sl.name, err)
			}
			measured, err := rqm.PSNR(&orig, got)
			if err != nil {
				return nil, nil, err
			}
			achieved := float64(orig.OriginalBytes()) / float64(sl.out.Len())
			ratioErr = append(ratioErr, 100*math.Abs(est.Ratio-achieved)/achieved)
			psnrErr = append(psnrErr, math.Abs(est.PSNR-measured))
		}
	}
	return ratioErr, psnrErr, nil
}

func (t *libraryTarget) stored() (held, live int64) {
	for _, sl := range t.slots {
		held += int64(sl.out.Len())
		live += t.corp.fields[sl.field].OriginalBytes()
	}
	return held, live
}

// counters reports what the library's own outputs say was used: the split
// decisions its writes reported, and how many held containers name the
// transform codec in their stream header.
func (t *libraryTarget) counters() map[string]float64 {
	c := map[string]float64{"partition.splits": float64(t.splits)}
	for _, sl := range t.slots {
		if idx, err := rqm.ReadStreamIndex(bytes.NewReader(sl.out.Bytes())); err == nil && idx.Header.CodecID == rqm.CodecTransform {
			c["stream.transform_containers"]++
		}
	}
	return c
}

func (t *libraryTarget) close() {}
