package core

import (
	"encoding/json"
	"reflect"
	"testing"

	"rqm/internal/predictor"
)

// TestRecordCarriesEveryField is the guard against the next forgotten field:
// every exported field of Options and of Profile must come back from
// Record → JSON → ProfileFromRecord. A field added to either struct is zero
// in the literal below, which fails here until it is given a value — and
// then the round trip fails until the record carries it.
func TestRecordCarriesEveryField(t *testing.T) {
	p := &Profile{
		Kind: predictor.Lorenzo2, Dims: []int{3}, N: 3, OrigBits: 32, Range: 2, DataVar: 0.5,
		Errors: []float64{0.5, -0.25, 1}, AuxBitsPerValue: 0.125,
		opts: Options{SampleRate: 0.5, Seed: 9, DisableCorrection: true,
			UseLossless: true, Entropy: EntropyModelANS},
	}
	for _, v := range []reflect.Value{reflect.ValueOf(*p), reflect.ValueOf(p.opts)} {
		for i := 0; i < v.NumField(); i++ {
			// BuildTime is a wall-clock measurement of the sampling pass, not
			// model state: a rebuilt profile did not run one.
			if f := v.Type().Field(i); f.IsExported() && f.Name != "BuildTime" && v.Field(i).IsZero() {
				t.Fatalf("%s.%s is unset: give it a value above so the round trip covers it", v.Type(), f.Name)
			}
		}
	}
	p.index()

	raw, err := json.Marshal(p.Record())
	if err != nil {
		t.Fatal(err)
	}
	var rec ProfileRecord
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatal(err)
	}
	back, err := ProfileFromRecord(&rec)
	if err != nil {
		t.Fatal(err)
	}
	back.BuildTime = 0
	if !reflect.DeepEqual(p, back) {
		t.Fatalf("profile %+v\ncame back as %+v\nvia %s", p, back, raw)
	}
}
