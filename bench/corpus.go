package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sync"
	"time"

	"rqm"
	"rqm/internal/grid"
)

// fieldSpec names one corpus field: the datagen path and the short tag used
// in dataset names (store names allow no '/').
type fieldSpec struct {
	path, tag string
}

var (
	fieldNyx     = fieldSpec{"nyx/temperature", "nyx"}
	fieldMiranda = fieldSpec{"miranda/vx", "miranda"}
	fieldHACC    = fieldSpec{"hacc/xx", "hacc"}
	fieldCESM    = fieldSpec{"cesm/TS", "cesm"}
	fieldMixed   = fieldSpec{"mixed/q", "mixed"}
)

// corpus is the seed-generated input set of one workload. Only the base
// fields are synthesized (the FFT synthesis is the expensive part of
// set-up); every dataset a workload writes is an affine variant of one of
// them, so distinct content costs one multiply-add per value.
type corpus struct {
	specs  []fieldSpec
	fields []*rqm.Field
	lo, hi []float64 // base value range per field
	// synth is the summed wall time of the GenerateField calls, bytes the
	// summed field size: together the datagen layer's throughput.
	synth time.Duration
	bytes int64
}

// buildCorpus synthesizes the base fields, two at a time (the harness is
// sized for two cores). The same (specs, seed, scale) yields identical data.
func buildCorpus(specs []fieldSpec, seed uint64, sc rqm.Scale) (*corpus, error) {
	c := &corpus{
		specs:  specs,
		fields: make([]*rqm.Field, len(specs)),
		lo:     make([]float64, len(specs)),
		hi:     make([]float64, len(specs)),
	}
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		ferr error
	)
	sem := make(chan struct{}, 2)
	for i, sp := range specs {
		wg.Add(1)
		go func(i int, sp fieldSpec) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			t0 := time.Now()
			f, err := rqm.GenerateField(sp.path, seed, sc)
			d := time.Since(t0)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				ferr = fmt.Errorf("corpus: %s: %w", sp.path, err)
				return
			}
			c.fields[i] = f
			c.lo[i], c.hi[i] = f.ValueRange()
			c.synth += d
			c.bytes += f.OriginalBytes()
		}(i, sp)
	}
	wg.Wait()
	return c, ferr
}

// hashes returns the SHA-256 of every base field's samples, the corpus
// identity the determinism test compares.
func (c *corpus) hashes() []string {
	out := make([]string, len(c.fields))
	var b [8]byte
	for i, f := range c.fields {
		h := sha256.New()
		for _, v := range f.Data {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
		out[i] = hex.EncodeToString(h.Sum(nil))
	}
	return out
}

// content selects one affine variant of a base field: v*A + Off, re-rounded
// to the field's precision. The zero value is not a valid content; use
// newContent.
type content struct {
	A, Off float64
}

// newContent derives a variant from a hash of its identity: A in [0.9, 1.1]
// and Off in [-0.05, 0.05] of the base range.
func (c *corpus) newContent(field int, key uint64) content {
	a := 0.9 + 0.2*unit(mix64(key))
	b := -0.05 + 0.1*unit(mix64(key^0x9e3779b97f4a7c15))
	return content{A: a, Off: b * (c.hi[field] - c.lo[field])}
}

// at is the variant's i-th value: what the harness expects a bit-exact read
// to return, and the reference a lossy read is bounded against.
func (c *corpus) at(field int, ct content, i int) float64 {
	v := c.fields[field].Data[i]*ct.A + ct.Off
	if c.fields[field].Prec == grid.Float32 {
		return float64(float32(v))
	}
	return v
}

// valueRange is the variant's max-min. The affine map is increasing (A > 0)
// and rounding is monotone, so the extremes map to the extremes.
func (c *corpus) valueRange(field int, ct content) float64 {
	round := func(v float64) float64 {
		if c.fields[field].Prec == grid.Float32 {
			return float64(float32(v))
		}
		return v
	}
	return round(c.hi[field]*ct.A+ct.Off) - round(c.lo[field]*ct.A+ct.Off)
}

// fill materializes the variant into dst (reused across ops by the library
// workload, which hands fields to the engine by pointer).
func (c *corpus) fill(dst *rqm.Field, field int, ct content) {
	base := c.fields[field]
	dst.Name = base.Name
	dst.Prec = base.Prec
	dst.Dims = base.Dims
	if cap(dst.Data) < len(base.Data) {
		dst.Data = make([]float64, len(base.Data))
	}
	dst.Data = dst.Data[:len(base.Data)]
	for i := range dst.Data {
		dst.Data[i] = c.at(field, ct, i)
	}
}

// encode serializes the variant as an .rqmf request body into dst (reused
// across ops) without materializing a field: header, then samples at the
// field's precision.
func (c *corpus) encode(dst []byte, field int, ct content) []byte {
	base := c.fields[field]
	var hdr bytes.Buffer
	_, _ = grid.WriteHeader(&hdr, base.Prec, base.Dims) // bytes.Buffer writes cannot fail
	w := base.Prec.Bits() / 8
	off := hdr.Len()
	if need := off + w*len(base.Data); cap(dst) < need {
		dst = make([]byte, need)
	} else {
		dst = dst[:need]
	}
	copy(dst, hdr.Bytes())
	for i := range base.Data {
		v := c.at(field, ct, i)
		if w == 4 {
			binary.LittleEndian.PutUint32(dst[off+4*i:], math.Float32bits(float32(v)))
		} else {
			binary.LittleEndian.PutUint64(dst[off+8*i:], math.Float64bits(v))
		}
	}
	return dst
}

// decodeRQMF parses an .rqmf response into its shape and a sample accessor,
// without copying the samples out of the response buffer.
func decodeRQMF(body []byte) (prec grid.Precision, dims []int, at func(i int) float64, n int, err error) {
	r := bytes.NewReader(body)
	prec, dims, err = grid.ReadHeader(r)
	if err != nil {
		return 0, nil, nil, 0, err
	}
	raw := body[len(body)-r.Len():]
	w := prec.Bits() / 8
	if len(raw)%w != 0 {
		return 0, nil, nil, 0, fmt.Errorf("rqmf: %d sample bytes is not a multiple of %d", len(raw), w)
	}
	n = len(raw) / w
	if w == 4 {
		at = func(i int) float64 { return float64(math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))) }
	} else {
		at = func(i int) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:])) }
	}
	return prec, dims, at, n, nil
}

// mix64 is the splitmix64 finalizer: the harness's only source of
// randomness, so schedules do not depend on a library's generator.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// unit maps a hash to [0, 1).
func unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// key folds identifiers into one hash input.
func key(parts ...uint64) uint64 {
	h := uint64(0x6a09e667f3bcc908)
	for _, p := range parts {
		h = mix64(h ^ p)
	}
	return h
}
