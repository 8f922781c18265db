package residual

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"rqm/internal/grid"
)

// rangeN is the value count of rangeCases' blocks: not a multiple of 8, so
// a ULP block of equal widths ends in pad bits.
const rangeN = 1001

// rangeCase is a one-block residual file of one layout at one precision,
// with the pairs it was coded from.
type rangeCase struct {
	name        string
	prec        grid.Precision
	file        []byte
	orig, recon []float64
}

// rangeCases is a ULP, an XOR and a raw block at each storage width.
func rangeCases(t *testing.T) []rangeCase {
	t.Helper()
	c, err := ByName(DefaultBackend)
	if err != nil {
		t.Fatal(err)
	}
	var cases []rangeCase
	for _, pc := range goldenPrecs {
		for _, layout := range []uint8{FlagULP, 0} {
			orig, recon, blocks := layoutBlocks(t, c, pc.prec, 1, rangeN, layout)
			var buf bytes.Buffer
			if _, err := Encode(&buf, c, pc.prec, orig, recon, blocks); err != nil {
				t.Fatal(err)
			}
			if _, e := soleBlock(buf.Bytes()); e.Flags != layout {
				t.Fatalf("%s block coded with flags %#x", layoutName(layout), e.Flags)
			}
			cases = append(cases, rangeCase{pc.tag + "/" + layoutName(layout), pc.prec, buf.Bytes(), orig, recon})
		}
		orig, recon, _ := smoothBlocks(pc.prec, 1, rangeN)
		res, err := Compute(orig, recon, pc.prec)
		if err != nil {
			t.Fatal(err)
		}
		file := craftFile(c.ID(), pc.prec.Bits()/8, rangeN, res)
		file[HeaderSize+4] = FlagRaw
		cases = append(cases, rangeCase{pc.tag + "/raw", pc.prec, file, orig, recon})
	}
	return cases
}

// blockRanges are the [lo, hi) every case is applied over: empty ranges at
// the start, middle and end, one value at each of those, a block's start
// and end, a range inside it, and the whole block.
var blockRanges = [][2]int{
	{0, 0}, {500, 500}, {rangeN, rangeN},
	{0, 1}, {500, 501}, {rangeN - 1, rangeN},
	{0, 64}, {rangeN - 64, rangeN}, {333, 777}, {1, rangeN - 1}, {0, rangeN},
}

// soleBlock is the entry of a one-block file's block, read without the
// index's checks, so a block LoadIndex would refuse still reaches
// ApplyBlock.
func soleBlock(file []byte) (Header, BlockEntry) {
	bh := file[HeaderSize:]
	return Header{BackendID: file[5], Width: int(file[6])}, BlockEntry{
		Offset:   HeaderSize,
		Values:   int(binary.LittleEndian.Uint32(bh[0:])),
		Flags:    bh[4],
		EncBytes: int(binary.LittleEndian.Uint32(bh[5:])),
		CRC:      binary.LittleEndian.Uint32(bh[9:]),
	}
}

// applyRange is ApplyBlock over [lo, hi) of a copy of recon.
func applyRange(file []byte, recon []float64, lo, hi int) ([]float64, error) {
	hdr, e := soleBlock(file)
	vals := slices.Clone(recon)
	return vals, ApplyBlock(bytes.NewReader(file), hdr, e, vals, lo, hi)
}

// TestApplyBlockRange: on ULP, XOR and raw blocks at both widths, a range
// apply restores exactly the whole apply's bits inside [lo, hi) and leaves
// every value outside it the reconstruction it was.
func TestApplyBlockRange(t *testing.T) {
	for _, c := range rangeCases(t) {
		whole, err := applyRange(c.file, c.recon, 0, rangeN)
		if err != nil {
			t.Fatalf("%s: whole apply: %v", c.name, err)
		}
		requireSameBits(t, c.name+": whole apply", whole, c.orig, c.prec)
		for _, r := range blockRanges {
			lo, hi := r[0], r[1]
			got, err := applyRange(c.file, c.recon, lo, hi)
			if err != nil {
				t.Fatalf("%s [%d, %d): %v", c.name, lo, hi, err)
			}
			want := slices.Concat(c.recon[:lo], whole[lo:hi], c.recon[hi:])
			requireSameBits(t, fmt.Sprintf("%s [%d, %d)", c.name, lo, hi), got, want, c.prec)
		}
		for _, r := range [][2]int{{-1, 3}, {5, 4}, {0, rangeN + 1}} {
			got, err := applyRange(c.file, c.recon, r[0], r[1])
			if err == nil {
				t.Fatalf("%s: range [%d, %d) of %d values applied", c.name, r[0], r[1], rangeN)
			}
			requireSameBits(t, fmt.Sprintf("%s: values after refusing [%d, %d)", c.name, r[0], r[1]), got, c.recon, c.prec)
		}
	}
}

// TestApplyBlockRangeRefusesWholeBlockFaults: a block whose CRC is
// consistent but whose payload is a byte long or short, or whose ULP pad
// bits are set, is refused for every range — the empty one and one value
// at the far end from the fault included — and vals is left untouched.
func TestApplyBlockRangeRefusesWholeBlockFaults(t *testing.T) {
	for _, c := range rangeCases(t) {
		hdr, e := soleBlock(c.file)
		payload := c.file[HeaderSize+blockHeaderSize:]
		reframe := func(p []byte) []byte {
			file := craftFile(hdr.BackendID, hdr.Width, rangeN, p)
			file[HeaderSize+4] = e.Flags
			return file
		}
		faults := map[string][]byte{
			"a byte more": reframe(append(slices.Clone(payload), 0)),
			"a byte less": reframe(payload[:len(payload)-1]),
		}
		if e.Flags == FlagULP {
			var st blockStats
			st.measure(c.orig, c.recon, hdr.Width)
			if st.ulpBits(hdr.Width)%8 == 0 {
				t.Fatalf("%s: the block ends on a byte, so it has no pad bits to set", c.name)
			}
			p := slices.Clone(payload)
			p[len(p)-1] |= 0x80 // the top bit of a partial last byte is pad
			faults["pad bits set"] = reframe(p)
		}
		for what, file := range faults {
			for _, r := range blockRanges {
				got, err := applyRange(file, c.recon, r[0], r[1])
				if err == nil {
					t.Fatalf("%s, %s: [%d, %d) applied", c.name, what, r[0], r[1])
				}
				requireTyped(t, err)
				requireSameBits(t, fmt.Sprintf("%s, %s: values after refusing [%d, %d)", c.name, what, r[0], r[1]), got, c.recon, c.prec)
			}
		}
	}
}
