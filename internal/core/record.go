package core

import (
	"encoding/base64"
	"encoding/binary"
	"fmt"
	"math"

	"rqm/internal/predictor"
)

// ProfileRecord is a Profile's wire form: everything EstimateAt and the
// inverse solvers read, as JSON-ready fields. Persisting it is what lets an
// archive answer every admission, retrieval and recompaction question in
// O(sample) with no re-sampling and no decompression. Record and
// ProfileFromRecord are the only code that knows which fields define a
// profile; a field added to Profile or Options is added here (the reflection
// guard in record_test.go fails until it is).
type ProfileRecord struct {
	// Predictor is the profile's kind label: a prediction scheme name, or
	// "transform" for profiles sampled from transform coefficients.
	Predictor string `json:"predictor"`
	// Dims is the profiled field shape.
	Dims []int `json:"dims"`
	// N is the profiled field's sample count.
	N int `json:"n"`
	// OrigBits is the original storage width per value (32 or 64).
	OrigBits int `json:"orig_bits"`
	// Range is the field's value range (max − min).
	Range float64 `json:"range"`
	// DataVar is the field's population variance (for the SSIM model).
	DataVar float64 `json:"data_var"`
	// AuxBitsPerValue is the predictor side-channel overhead in bits/value.
	AuxBitsPerValue float64 `json:"aux_bits_per_value,omitempty"`
	// SampleRate and Seed reproduce the sampling pass configuration.
	SampleRate float64 `json:"sample_rate"`
	Seed       uint64  `json:"seed,omitempty"`
	// Entropy, UseLossless and DisableCorrection complete the modeled
	// pipeline. Each is omitted at its zero value (Huffman, no lossless
	// stage, correction on), which is also how records written before the
	// fields existed read back.
	Entropy           EntropyModel `json:"entropy,omitempty"`
	UseLossless       bool         `json:"use_lossless,omitempty"`
	DisableCorrection bool         `json:"disable_correction,omitempty"`
	// Errors is the sampled prediction-error vector, base64-encoded
	// little-endian float64s in sampling order (compact and exact, unlike a
	// JSON number array). It is empty on a record whose samples are stored
	// apart from it, which ValidateHead checks and ProfileFromRecord refuses.
	Errors string `json:"errors_b64,omitempty"`
}

// String names the entropy model; the name is its ProfileRecord label.
func (m EntropyModel) String() string {
	switch m {
	case EntropyModelHuffman:
		return "huffman"
	case EntropyModelANS:
		return "ans"
	}
	return fmt.Sprintf("EntropyModel(%d)", int(m))
}

// MarshalText writes the model's label.
func (m EntropyModel) MarshalText() ([]byte, error) { return []byte(m.String()), nil }

// UnmarshalText resolves a label written by MarshalText.
func (m *EntropyModel) UnmarshalText(text []byte) error {
	for _, k := range []EntropyModel{EntropyModelHuffman, EntropyModelANS} {
		if k.String() == string(text) {
			*m = k
			return nil
		}
	}
	return fmt.Errorf("core: unknown entropy model %q", text)
}

// Record serializes the profile.
func (p *Profile) Record() *ProfileRecord {
	raw := make([]byte, 8*len(p.Errors))
	for i, e := range p.Errors {
		binary.LittleEndian.PutUint64(raw[8*i:], math.Float64bits(e))
	}
	return &ProfileRecord{
		Predictor:         p.Kind.String(),
		Dims:              append([]int(nil), p.Dims...),
		N:                 p.N,
		OrigBits:          p.OrigBits,
		Range:             p.Range,
		DataVar:           p.DataVar,
		AuxBitsPerValue:   p.AuxBitsPerValue,
		SampleRate:        p.opts.SampleRate,
		Seed:              p.opts.Seed,
		Entropy:           p.opts.Entropy,
		UseLossless:       p.opts.UseLossless,
		DisableCorrection: p.opts.DisableCorrection,
		Errors:            base64.StdEncoding.EncodeToString(raw),
	}
}

// kind checks the record's scalars and resolves its kind label.
func (r *ProfileRecord) kind() (predictor.Kind, error) {
	kind := predictor.Transform
	if r.Predictor != kind.String() {
		var err error
		if kind, err = predictor.ParseKind(r.Predictor); err != nil {
			return 0, fmt.Errorf("core: profile kind: %v", err)
		}
	}
	if r.N <= 0 {
		return 0, fmt.Errorf("core: profile n %d", r.N)
	}
	if math.IsNaN(r.Range) || r.Range < 0 {
		return 0, fmt.Errorf("core: profile range %v", r.Range)
	}
	return kind, nil
}

// decode checks the record and unpacks what needs parsing: the kind label
// and the sample vector.
func (r *ProfileRecord) decode() (predictor.Kind, []float64, error) {
	kind, err := r.kind()
	if err != nil {
		return 0, nil, err
	}
	raw, err := base64.StdEncoding.DecodeString(r.Errors)
	if err != nil {
		return 0, nil, fmt.Errorf("core: profile errors: %v", err)
	}
	if len(raw) == 0 || len(raw)%8 != 0 {
		return 0, nil, fmt.Errorf("core: profile errors: %d bytes is not a float64 vector", len(raw))
	}
	errs := make([]float64, len(raw)/8)
	for i := range errs {
		errs[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		if math.IsNaN(errs[i]) {
			return 0, nil, fmt.Errorf("core: profile errors: NaN sample %d", i)
		}
	}
	return kind, errs, nil
}

// Validate reports whether ProfileFromRecord would accept the record,
// without paying for the profile's sort.
func (r *ProfileRecord) Validate() error {
	_, _, err := r.decode()
	return err
}

// ValidateHead is Validate for a record whose samples are stored apart:
// every check but the sample vector's, which must be absent.
func (r *ProfileRecord) ValidateHead() error {
	if r.Errors != "" {
		return fmt.Errorf("core: profile head carries %d bytes of inline samples", len(r.Errors))
	}
	_, err := r.kind()
	return err
}

// ProfileFromRecord rebuilds the live profile a record was taken from: it
// answers EstimateAt and the inverse solvers bit-identically to the original.
func ProfileFromRecord(r *ProfileRecord) (*Profile, error) {
	kind, errs, err := r.decode()
	if err != nil {
		return nil, err
	}
	p, err := NewProfileFromSamples(kind, errs, r.Dims, r.N, r.OrigBits, r.Range, r.DataVar, Options{
		SampleRate:        r.SampleRate,
		Seed:              r.Seed,
		Entropy:           r.Entropy,
		UseLossless:       r.UseLossless,
		DisableCorrection: r.DisableCorrection,
	})
	if err != nil {
		return nil, err
	}
	p.AuxBitsPerValue = r.AuxBitsPerValue
	return p, nil
}
