package codec

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"rqm/internal/compressor"
	"rqm/internal/core"
	"rqm/internal/datagen"
	"rqm/internal/grid"
)

func testField(t testing.TB) *grid.Field {
	t.Helper()
	f, err := datagen.GenerateField("cesm/TS", 42, datagen.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestRegistryHasBuiltins(t *testing.T) {
	all := All()
	if len(all) != 4 {
		t.Fatalf("codecs = %d, want the 4 built-ins", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i].ID() <= all[i-1].ID() {
			t.Fatal("All() not sorted by ID")
		}
	}
	for i, want := range []struct {
		id   ID
		name string
	}{{IDPrediction, PredictionName}, {IDTransform, TransformName},
		{IDPredictionILV, PredictionILVName}, {IDPredictionTANS, PredictionTANSName}} {
		byID, err := ByID(want.id)
		if err != nil {
			t.Fatal(err)
		}
		byName, err := ByName(want.name)
		if err != nil {
			t.Fatal(err)
		}
		if byID != byName || byID.Name() != want.name || Names()[i] != want.name {
			t.Fatalf("ByID(%d), ByName(%q) and Names disagree", want.id, want.name)
		}
	}
	// The set is read-only: what All returns is the caller's copy.
	all[0] = nil
	if c, err := ByID(IDPrediction); err != nil || c == nil || All()[0] == nil {
		t.Fatal("writing All's result changed the codec set")
	}
}

// TestRegistryRejectsDuplicatesAndUnknown: the closed set names every codec
// by one ID and one name, and an unknown ID or name resolves to nothing.
func TestRegistryRejectsDuplicatesAndUnknown(t *testing.T) {
	ids, names := map[ID]bool{}, map[string]bool{}
	for _, c := range All() {
		if ids[c.ID()] || names[c.Name()] || c.Name() == "" {
			t.Fatalf("codec %q (id %d) duplicates another or has no name", c.Name(), c.ID())
		}
		ids[c.ID()], names[c.Name()] = true, true
	}
	if _, err := ByID(ID(200)); !errors.Is(err, ErrUnknownCodec) {
		t.Fatalf("ByID unknown: %v", err)
	}
	if _, err := ByName("no-such-codec"); !errors.Is(err, ErrUnknownCodec) {
		t.Fatalf("ByName unknown: %v", err)
	}
}

func TestSealOpenRoundTrip(t *testing.T) {
	f := testField(t)
	payload := []byte{1, 2, 3, 4, 5}
	sealed, err := Seal(IDPrediction, f, payload)
	if err != nil {
		t.Fatal(err)
	}
	info, got, err := Open(sealed)
	if err != nil {
		t.Fatal(err)
	}
	if info.CodecID != IDPrediction || info.CodecName != PredictionName {
		t.Fatalf("info = %+v", info)
	}
	if info.FieldName != f.Name || len(info.Dims) != f.Rank() || info.Prec != f.Prec {
		t.Fatalf("metadata mismatch: %+v vs field %q %v", info, f.Name, f.Dims)
	}
	if string(got) != string(payload) {
		t.Fatalf("payload mismatch: %v", got)
	}
}

func TestCompressSealsAndStats(t *testing.T) {
	f := testField(t)
	for _, c := range All() {
		res, err := Compress(c, f, Options{Mode: compressor.REL, ErrorBound: 1e-3})
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		if res.Stats.Codec != c.Name() || res.Stats.N != f.Len() {
			t.Fatalf("%s stats: %+v", c.Name(), res.Stats)
		}
		if int64(len(res.Bytes)) != res.Stats.CompressedBytes {
			t.Fatalf("%s: CompressedBytes %d != container %d", c.Name(), res.Stats.CompressedBytes, len(res.Bytes))
		}
		back, err := Decompress(res.Bytes)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		lo, hi := f.ValueRange()
		if err := compressor.VerifyErrorBound(f, back, compressor.ABS, 1e-3*(hi-lo)); err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
	}
}

func TestTransformCodecRejectsPWREL(t *testing.T) {
	f := testField(t)
	c, err := ByID(IDTransform)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compress(c, f, Options{Mode: compressor.PWREL, ErrorBound: 1e-3}); err == nil {
		t.Fatal("transform codec accepted PWREL")
	}
}

func TestProfileThroughInterface(t *testing.T) {
	f := testField(t)
	mopts := core.Options{SampleRate: 0.2, Seed: 7}
	for _, c := range All() {
		p, err := c.Profile(f, Options{}, mopts)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		eb := p.Range * 1e-3
		est := p.EstimateAt(eb)
		if est.Ratio <= 1 || est.PSNR <= 0 {
			t.Fatalf("%s estimate: ratio=%v psnr=%v", c.Name(), est.Ratio, est.PSNR)
		}
	}
}

// TestProfileDerivedAndPersistent: for every codec the profile's
// pipeline facts are what copts and the codec's identity imply — contrary
// mopts notwithstanding — and the profile's record, through JSON, rebuilds a
// profile that answers bit-identically.
func TestProfileDerivedAndPersistent(t *testing.T) {
	sparse, err := datagen.GenerateField("rtm/snapshot_1", 42, datagen.Small)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range All() {
		for _, lossless := range []compressor.LosslessKind{compressor.LosslessNone, compressor.LosslessRLE} {
			for _, f := range []*grid.Field{testField(t), sparse} {
				on := lossless != compressor.LosslessNone
				// mopts contradicts the pipeline on both facts.
				p, err := c.Profile(f, Options{Lossless: lossless}, core.Options{
					SampleRate: 0.05, Seed: 7, Entropy: core.EntropyModelANS, UseLossless: !on})
				if err != nil {
					t.Fatalf("%s: %v", c.Name(), err)
				}
				want := core.Options{SampleRate: 0.05, Seed: 7, UseLossless: on}
				switch c.ID() {
				case IDPredictionTANS:
					want.Entropy = core.EntropyModelANS
				case IDTransform:
					want.UseLossless = false
				}
				if got := p.Options(); got != want {
					t.Fatalf("%s lossless=%s: profile options %+v, want %+v", c.Name(), lossless, got, want)
				}

				raw, err := json.Marshal(p.Record())
				if err != nil {
					t.Fatal(err)
				}
				if strings.Contains(string(raw), "Kind(") {
					t.Fatalf("%s: unnamed kind on the wire: %.120s", c.Name(), raw)
				}
				var rec core.ProfileRecord
				if err := json.Unmarshal(raw, &rec); err != nil {
					t.Fatal(err)
				}
				back, err := core.ProfileFromRecord(&rec)
				if err != nil {
					t.Fatalf("%s: %v", c.Name(), err)
				}
				for _, rel := range []float64{1e-5, 1e-3, 1e-1} {
					if a, b := p.EstimateAt(rel*p.Range), back.EstimateAt(rel*p.Range); a != b {
						t.Fatalf("%s lossless=%s %s rel=%g: estimate %+v reloaded as %+v",
							c.Name(), lossless, f.Name, rel, a, b)
					}
				}
				for _, ratio := range []float64{5, 100} {
					a, _ := p.ErrorBoundForRatio(ratio)
					if b, _ := back.ErrorBoundForRatio(ratio); a != b || a == 0 {
						t.Fatalf("%s lossless=%s %s: bound %v for %gx reloaded as %v",
							c.Name(), lossless, f.Name, a, ratio, b)
					}
				}
			}
		}
	}
}

func TestOpenEnvelopeErrors(t *testing.T) {
	f := testField(t)
	sealed, err := Seal(IDTransform, f, []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}

	t.Run("trailing garbage", func(t *testing.T) {
		_, _, err := Open(append(append([]byte{}, sealed...), 0xAA))
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("unregistered id", func(t *testing.T) {
		bad, err := Seal(ID(250), f, []byte("payload"))
		if err != nil {
			t.Fatal(err)
		}
		info, _, err := Open(bad)
		if err != nil {
			t.Fatal(err) // Open succeeds; routing fails
		}
		if info.CodecName != "" {
			t.Fatalf("unknown ID resolved name %q", info.CodecName)
		}
		if _, err := Decompress(bad); !errors.Is(err, ErrUnknownCodec) {
			t.Fatalf("Decompress: %v", err)
		}
	})
}
