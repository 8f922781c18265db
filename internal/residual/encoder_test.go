package residual

import (
	"bytes"
	"errors"
	"testing"

	"rqm/internal/grid"
)

// TestEncoderMisuse: a block past the declared count, a block longer than
// the original values left, an empty block, and blocks or values left at
// Close each fail with ErrGeometry, write nothing, and leave the Encoder
// refusing every later call.
func TestEncoderMisuse(t *testing.T) {
	orig, recon, _ := smoothBlocks(grid.Float64, 2, 512)
	c, err := ByName(DefaultBackend)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		nblocks int
		blocks  []int // the blocks coded before the misuse
		misuse  int   // the next block's length; 0 means Close instead
	}{
		{"block past the declared count", 1, []int{512}, 512},
		{"block longer than the original left", 2, []int{512}, 513},
		{"empty block", 2, nil, -1},
		{"values left at Close", 1, []int{512}, 0},
		{"blocks left at Close", 3, []int{512, 512}, 0},
	} {
		var buf bytes.Buffer
		enc, err := NewEncoder(&buf, c, grid.Float64, orig, nil, tc.nblocks)
		if err != nil {
			t.Fatal(err)
		}
		at := 0
		for _, v := range tc.blocks {
			if err := enc.Block(recon[at : at+v]); err != nil {
				t.Fatalf("%s: block before the misuse: %v", tc.name, err)
			}
			at += v
		}
		written := buf.Len()
		switch {
		case tc.misuse > 0:
			err = enc.Block(make([]float64, tc.misuse))
		case tc.misuse < 0:
			err = enc.Block(nil)
		default:
			_, err = enc.Close()
		}
		if !errors.Is(err, ErrGeometry) {
			t.Fatalf("%s: %v, want ErrGeometry", tc.name, err)
		}
		if buf.Len() != written {
			t.Fatalf("%s: the refused call wrote %d bytes", tc.name, buf.Len()-written)
		}
		if err := enc.Block(recon[:1]); !errors.Is(err, ErrGeometry) || buf.Len() != written {
			t.Fatalf("%s: a block after the misuse: %v, %d more bytes", tc.name, err, buf.Len()-written)
		}
		if _, err := enc.Close(); !errors.Is(err, ErrGeometry) {
			t.Fatalf("%s: Close after the misuse: %v, want ErrGeometry", tc.name, err)
		}
	}
}
