package residual

import (
	"bytes"
	"sync/atomic"
	"testing"

	"rqm"
	"rqm/internal/codec"
	"rqm/internal/datagen"
)

// reconBlocks stream-compresses f at REL bound rel in chunks of chunk values
// and returns the decoded reconstruction with its chunk lengths: the
// (recon, blocks) a residual is coded against.
func reconBlocks(t *testing.T, f *rqm.Field, rel float64, chunk int) ([]float64, []int) {
	t.Helper()
	eng, err := rqm.NewEngine(rqm.WithMode(rqm.REL), rqm.WithErrorBound(rel))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sw, err := eng.NewFieldStreamWriter(&buf, f, rqm.WithChunkSize(chunk))
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.WriteValues(f.Data); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	rs := bytes.NewReader(buf.Bytes())
	idx, err := codec.LoadIndex(rs)
	if err != nil {
		t.Fatal(err)
	}
	var recon []float64
	var blocks []int
	for _, e := range idx.Entries {
		vals, err := codec.DecodeChunkAt(rs, e, nil)
		if err != nil {
			t.Fatal(err)
		}
		recon, blocks = append(recon, vals...), append(blocks, len(vals))
	}
	return recon, blocks
}

// TestLayoutTable is the layout rule over every datagen field at REL 1e-2,
// 1e-3 and 1e-4 — small scale, 65,536-value blocks, the default backend:
// 66 cells, the exact tier's configuration. No block the rule codes is
// larger than the XOR block it would have coded before the ULP layout
// existed. It logs each cell's residual bits per value, XOR layout → the
// rule, and its ULP block count.
func TestLayoutTable(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("synthesizes 15 M values; the fuzz and golden tests cover the layouts under -short and -race")
	}
	var cells, ulpCells atomic.Int64
	t.Run("datasets", func(t *testing.T) {
		for _, name := range datagen.Names() {
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				ds, err := rqm.GenerateDataset(name, 1, rqm.ScaleSmall)
				if err != nil {
					t.Fatal(err)
				}
				for _, f := range ds.Fields {
					for _, rel := range []float64{1e-2, 1e-3, 1e-4} {
						if layoutCell(t, f, rel) > 0 {
							ulpCells.Add(1)
						}
						cells.Add(1)
					}
				}
			})
		}
	})
	if cells.Load() != 66 || ulpCells.Load() == 0 {
		t.Fatalf("%d cells, %d with a ULP block; want 66 cells", cells.Load(), ulpCells.Load())
	}
}

// layoutCell codes f's residual at REL rel block by block, by the rule and
// in the XOR layout, fails on a block the rule makes larger, logs the cell
// and returns its ULP block count.
func layoutCell(t *testing.T, f *rqm.Field, rel float64) (ulp int) {
	c, err := ByName(DefaultBackend)
	if err != nil {
		t.Fatal(err)
	}
	width, err := widthOf(f.Prec)
	if err != nil {
		t.Fatal(err)
	}
	s := new(scratch)
	recon, blocks := reconBlocks(t, f, rel, 1<<16)
	var before, after int
	o, r := f.Data, recon
	for i, n := range blocks {
		rec, err := encodeXORBlock(s, c, o[:n], r[:n], width)
		if err != nil {
			t.Fatal(err)
		}
		xor := len(rec)
		if rec, err = encodeBlock(s, c, o[:n], r[:n], width); err != nil {
			t.Fatal(err)
		}
		if rec[4] == FlagULP {
			ulp++
		}
		if len(rec) > xor {
			t.Errorf("%s REL %g block %d: the rule codes %d bytes, the XOR layout %d", f.Name, rel, i, len(rec), xor)
		}
		before, after = before+xor, after+len(rec)
		o, r = o[n:], r[n:]
	}
	nv := float64(len(f.Data))
	t.Logf("%-24s REL %.0e: %6.2f → %6.2f bits/value, %2d of %2d blocks ULP",
		f.Name, rel, 8*float64(before)/nv, 8*float64(after)/nv, ulp, len(blocks))
	return ulp
}
