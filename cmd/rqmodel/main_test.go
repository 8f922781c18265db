package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"rqm"
	"rqm/internal/datagen"
	"rqm/internal/grid"
	"rqm/internal/partition"
)

// TestChunkPlanPrintsRecordedBounds holds the dry run to the pipeline: every
// bound `-chunk-plan` prints must be the bound the stream writer records for
// the same field, chunk size, target and model options. The first chunk is
// small enough (under 25,600 values) that the 1% sampling rate is raised to
// the solve's sample floor; the second is constant, so the solve falls back.
func TestChunkPlanPrintsRecordedBounds(t *testing.T) {
	const chunk = 8192
	vals := datagen.SpectralField("plan", grid.Float64, []int{32, 16, 16}, -1.6, -1, 1, 7).Data
	for range 4096 {
		vals = append(vals, 0.5)
	}
	f, err := rqm.FieldFromData("plan", rqm.Float64, vals, len(vals))
	if err != nil {
		t.Fatal(err)
	}
	c, err := rqm.CodecByName(rqm.CodecPredictionName)
	if err != nil {
		t.Fatal(err)
	}
	copts := rqm.CodecOptions{Predictor: rqm.Lorenzo, Mode: rqm.ABS, Lossless: rqm.LosslessFlate}
	mopts := rqm.ModelOptions{SampleRate: 0.01, Seed: 42}
	for _, policy := range []rqm.AdaptiveBound{{TargetPSNR: 60}, {TargetRatio: 12}} {
		var out bytes.Buffer
		env := partition.Env{Codec: c, Copts: copts, Mopts: mopts, Prec: f.Prec, Policy: &policy}
		if err := planChunks(&out, f, env, chunk); err != nil {
			t.Fatal(err)
		}
		rows := strings.Split(strings.TrimSpace(out.String()), "\n")[1:]

		var buf bytes.Buffer
		w, err := rqm.NewWriter(&buf,
			rqm.WithStreamCompression(copts),
			rqm.WithStreamModel(mopts),
			rqm.WithAdaptiveBound(policy),
			rqm.WithChunkSize(chunk),
			rqm.WithStreamShape(f.Prec, f.Dims...))
		if err != nil {
			t.Fatal(err)
		}
		if err := w.WriteValues(f.Data); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		idx, err := rqm.ReadStreamIndex(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != len(idx.Entries) || len(rows) != 2 {
			t.Fatalf("%+v: printed %d chunks, the stream has %d:\n%s", policy, len(rows), len(idx.Entries), out.String())
		}
		for i, row := range rows {
			cols := strings.Fields(row)
			if want := fmt.Sprintf("%.6g", idx.Entries[i].AbsBound); cols[2] != want {
				t.Errorf("%+v chunk %d: printed bound %s, the writer recorded %s", policy, i, cols[2], want)
			}
		}
		if !strings.Contains(rows[1], "fallback") || strings.Contains(rows[0], "fallback") {
			t.Errorf("%+v: want only the constant chunk on the fallback:\n%s", policy, out.String())
		}
	}
}
