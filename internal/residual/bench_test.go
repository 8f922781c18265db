package residual

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"rqm/internal/grid"
)

// benchShapes are the two block geometries worth timing on a smooth
// 256Ki-value field: float64 in 4096-value blocks, where building eight
// coding tables per block is most of the work, and float32 in 65536-value
// blocks — what the store writes — where coding is.
var benchShapes = []struct {
	prec   grid.Precision
	values int
}{{grid.Float64, 4096}, {grid.Float32, 65536}}

func benchName(prec grid.Precision, values int) string {
	return fmt.Sprintf("f%d/%d", prec.Bits(), values)
}

// BenchmarkResidualEncode measures residual synthesis end to end — XOR into
// byte planes, entropy coding, framing — at the default backend, reported
// as input bytes/sec.
func BenchmarkResidualEncode(b *testing.B) {
	c, err := ByName(DefaultBackend)
	if err != nil {
		b.Fatal(err)
	}
	for _, sh := range benchShapes {
		b.Run(benchName(sh.prec, sh.values), func(b *testing.B) {
			orig, recon, blocks := smoothBlocks(sh.prec, (1<<18)/sh.values, sh.values)
			b.SetBytes(int64(len(orig) * sh.prec.Bits() / 8))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Encode(io.Discard, c, sh.prec, orig, recon, blocks); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkResidualDecode measures the exact-read hot loop — block read,
// CRC, entropy decode, XOR into the values — as the store runs it
// (ApplyBlock) next to the two-step ReadBlock + Apply it replaced there.
func BenchmarkResidualDecode(b *testing.B) {
	c, err := ByName(DefaultBackend)
	if err != nil {
		b.Fatal(err)
	}
	for _, sh := range benchShapes {
		orig, recon, blocks := smoothBlocks(sh.prec, (1<<18)/sh.values, sh.values)
		var buf bytes.Buffer
		if _, err := Encode(&buf, c, sh.prec, orig, recon, blocks); err != nil {
			b.Fatal(err)
		}
		data := buf.Bytes()
		idx, err := LoadIndex(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		vals := make([]float64, len(orig))
		run := func(name string, block func(r io.ReadSeeker, e BlockEntry, vals []float64) error) {
			b.Run(name+"/"+benchName(sh.prec, sh.values), func(b *testing.B) {
				b.SetBytes(int64(len(orig) * sh.prec.Bits() / 8))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					copy(vals, recon)
					r := bytes.NewReader(data)
					start := 0
					for _, e := range idx.Blocks {
						if err := block(r, e, vals[start:start+e.Values]); err != nil {
							b.Fatal(err)
						}
						start += e.Values
					}
				}
			})
		}
		run("ApplyBlock", func(r io.ReadSeeker, e BlockEntry, vals []float64) error {
			return ApplyBlock(r, idx.Header, e, vals)
		})
		run("ReadBlock+Apply", func(r io.ReadSeeker, e BlockEntry, vals []float64) error {
			raw, err := ReadBlock(r, idx.Header, e)
			if err != nil {
				return err
			}
			return Apply(vals, raw, sh.prec)
		})
	}
}
