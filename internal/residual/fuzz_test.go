package residual

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"testing"

	"rqm/internal/grid"
)

// FuzzContainer feeds arbitrary bytes through the full read path — index
// scan plus every block decode, by both readers — and requires typed errors,
// never a panic, and the two readers in agreement: ApplyBlock restores the
// bytes ReadBlock+Apply restores, or fails with an error of the same type.
// Seeds cover valid containers for each backend and width (the golden files
// add raw blocks, raw planes and NaN payloads) plus the damage classes the
// scrubber must classify: truncations and bit flips at every layer.
func FuzzContainer(f *testing.F) {
	for _, name := range []string{"huffman", "ans", "lz77"} {
		c, err := ByName(name)
		if err != nil {
			f.Fatal(err)
		}
		orig := make([]float64, 300)
		recon := make([]float64, 300)
		for i := range orig {
			orig[i] = math.Sin(float64(i) / 13)
			recon[i] = orig[i] + 1e-4*math.Cos(float64(i))
		}
		var buf bytes.Buffer
		if _, err := Encode(&buf, c, grid.Float64, orig, recon, []int{128, 128, 44}); err != nil {
			f.Fatal(err)
		}
		good := buf.Bytes()
		f.Add(append([]byte(nil), good...))
		for _, cut := range []int{3, HeaderSize - 1, HeaderSize + 7, len(good) / 2, len(good) - 1} {
			f.Add(append([]byte(nil), good[:cut]...))
		}
		for _, pos := range []int{0, 4, 5, 6, 8, 20, 48, HeaderSize, HeaderSize + 4, HeaderSize + 9, len(good) - 1} {
			b := append([]byte(nil), good...)
			b[pos] ^= 0x40
			f.Add(b)
		}
	}
	for _, pc := range goldenPrecs {
		for _, backend := range goldenBackends {
			good, err := os.ReadFile(fmt.Sprintf("testdata/pre_pr20_%s_%s.rqr", pc.tag, backend))
			if err != nil {
				f.Fatal(err)
			}
			f.Add(good)
		}
	}
	f.Add([]byte{})
	f.Add([]byte("RQRS"))

	f.Fuzz(func(t *testing.T, data []byte) {
		idx, err := LoadIndex(bytes.NewReader(data))
		if err != nil {
			requireTyped(t, err)
			return
		}
		prec := grid.Float64
		if idx.Header.Width == 4 {
			prec = grid.Float32
		}
		for i, e := range idx.Blocks {
			if e.Values > 1<<20 {
				continue // a hostile count is a typed error elsewhere; do not size buffers by it here
			}
			viaRead := make([]float64, e.Values)
			for k := range viaRead {
				viaRead[k] = float64(k%97) - 48.5
			}
			viaApply := append([]float64(nil), viaRead...)
			raw, readErr := ReadBlock(bytes.NewReader(data), idx.Header, e)
			if readErr == nil {
				readErr = Apply(viaRead, raw, prec)
			}
			applyErr := ApplyBlock(bytes.NewReader(data), idx.Header, e, viaApply)
			deepErr := VerifyBlock(bytes.NewReader(data), idx.Header, e, true)
			if readErr != nil {
				requireTyped(t, readErr)
			}
			if errorType(readErr) != errorType(applyErr) || errorType(readErr) != errorType(deepErr) {
				t.Fatalf("block %d: ReadBlock+Apply says %v, ApplyBlock says %v, deep VerifyBlock says %v", i, readErr, applyErr, deepErr)
			}
			if readErr != nil {
				continue
			}
			for k := range viaRead {
				if storageBits(viaRead[k], prec) != storageBits(viaApply[k], prec) {
					t.Fatalf("block %d: value %d: ApplyBlock and ReadBlock+Apply restore different bits", i, k)
				}
			}
		}
	})
}

// errorType is the package sentinel err wraps (nil for nil).
func errorType(err error) error {
	for _, want := range []error{ErrBadMagic, ErrUnsupportedVersion, ErrUnknownBackend, ErrCorrupt, ErrTruncated} {
		if errors.Is(err, want) {
			return want
		}
	}
	return err
}

func requireTyped(t *testing.T, err error) {
	t.Helper()
	for _, want := range []error{ErrBadMagic, ErrUnsupportedVersion, ErrUnknownBackend, ErrCorrupt, ErrTruncated} {
		if errors.Is(err, want) {
			return
		}
	}
	t.Fatalf("untyped error: %v", err)
}
