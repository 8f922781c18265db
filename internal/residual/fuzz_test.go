package residual

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"slices"
	"testing"

	"rqm/internal/grid"
)

// FuzzContainer feeds arbitrary bytes through the full read path — index
// scan plus every block decode, by both readers — and requires typed errors,
// never a panic, and the readers in agreement. On an XOR block ApplyBlock
// restores the bytes ReadBlock+Apply restores, or fails with an error of
// the same type as both and deep VerifyBlock. A ULP block has no XOR bytes
// to compare: ApplyBlock is held to refUnpackULP over the payload ReadBlock
// returns, and leaves the values untouched when it fails. Seeds cover valid
// containers for each backend and width (the golden files add raw blocks,
// raw planes, ULP blocks and NaN payloads) plus the damage classes the
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
			for _, kind := range []string{"pre_pr20", "v2"} {
				good, err := os.ReadFile(fmt.Sprintf("testdata/%s_%s_%s.rqr", kind, pc.tag, backend))
				if err != nil {
					f.Fatal(err)
				}
				f.Add(good)
			}
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
			if e.Flags&FlagULP != 0 {
				checkULPBlock(t, data, idx.Header, e, viaApply, prec)
				continue
			}
			raw, readErr := ReadBlock(bytes.NewReader(data), idx.Header, e)
			if readErr == nil {
				readErr = Apply(viaRead, raw, prec)
			}
			applyErr := ApplyBlock(bytes.NewReader(data), idx.Header, e, viaApply, 0, len(viaApply))
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

// checkULPBlock holds ApplyBlock on ULP block e to the reference unpack of
// the payload ReadBlock returns, and ReadBlock to deep VerifyBlock: the same
// error type, the same restored bits, and vals untouched on failure.
func checkULPBlock(t *testing.T, data []byte, hdr Header, e BlockEntry, vals []float64, prec grid.Precision) {
	t.Helper()
	before := append([]float64(nil), vals...)
	payload, readErr := ReadBlock(bytes.NewReader(data), hdr, e)
	deepErr := VerifyBlock(bytes.NewReader(data), hdr, e, true)
	if errorType(readErr) != errorType(deepErr) {
		t.Fatalf("ULP block: ReadBlock says %v, deep VerifyBlock says %v", readErr, deepErr)
	}
	var want []float64
	if readErr == nil {
		want, readErr = refUnpackULP(vals, payload, prec)
	}
	applyErr := ApplyBlock(bytes.NewReader(data), hdr, e, vals, 0, len(vals))
	if errorType(readErr) != errorType(applyErr) {
		t.Fatalf("ULP block: reference says %v, ApplyBlock says %v", readErr, applyErr)
	}
	if applyErr != nil {
		requireTyped(t, applyErr)
		want = before
	}
	for k := range want {
		if storageBits(vals[k], prec) != storageBits(want[k], prec) {
			t.Fatalf("ULP block: value %d: ApplyBlock leaves bits %#x, want %#x (error %v)",
				k, storageBits(vals[k], prec), storageBits(want[k], prec), applyErr)
		}
	}
}

// refUnpackULP is the ULP layout read the slow way — one bit at a time,
// branchy key maps, signed distances — returning the values recon restores
// to, or the typed error a malformed payload deserves.
func refUnpackULP(recon []float64, payload []byte, prec grid.Precision) ([]float64, error) {
	nb := prec.Bits()
	expBits, mantBits := 8, 23
	if nb == 64 {
		expBits, mantBits = 11, 52
	}
	mask, sign := ^uint64(0)>>(64-nb), uint64(1)<<(nb-1)
	if len(payload) < 2 {
		return nil, fmt.Errorf("%w: short head", ErrCorrupt)
	}
	t := int(payload[0]) | int(payload[1])<<8
	if t > nb+(1<<expBits-1) {
		return nil, fmt.Errorf("%w: t %d", ErrCorrupt, t)
	}
	widths := make([]int, len(recon))
	total := 0
	for i, v := range recon {
		e := int(storageBits(v, prec)>>mantBits) & (1<<expBits - 1)
		widths[i] = min(nb, max(0, t-e))
		total += widths[i]
	}
	if len(payload) != 2+(total+7)/8 {
		return nil, fmt.Errorf("%w: %d bytes for %d bits", ErrCorrupt, len(payload), total)
	}
	bit := func(k int) uint64 { return uint64(payload[2+k/8]>>(k%8)) & 1 }
	for k := total; k < 8*(len(payload)-2); k++ {
		if bit(k) != 0 {
			return nil, fmt.Errorf("%w: pad bit %d set", ErrCorrupt, k)
		}
	}
	out := make([]float64, len(recon))
	pos := 0
	for i, v := range recon {
		var z uint64
		for j := 0; j < widths[i]; j++ {
			z |= bit(pos+j) << j
		}
		pos += widths[i]
		d := z >> 1 // z even: d ≥ 0; odd: d = −(z+1)/2
		if z&1 == 1 {
			d = -d - 1
		}
		u := storageBits(v, prec)
		key := u | sign
		if u&sign != 0 {
			key = ^u & mask
		}
		key = (key + d) & mask
		if key&sign != 0 {
			u = key &^ sign
		} else {
			u = ^key & mask
		}
		if nb == 32 {
			out[i] = float64(math.Float32frombits(uint32(u)))
		} else {
			out[i] = math.Float64frombits(u)
		}
	}
	return out, nil
}

// ulpSpecials are the bit patterns FuzzULPBlock salts its pairs with, at
// float64 width; float32 pairs take the same values narrowed, plus their own.
var ulpSpecials = []uint64{
	0x7ff8000000000001, 0x7ffcdead00000000, 0xfff80000beef0000, // NaN payloads
	0x7ff0000000000000, 0xfff0000000000000, // ±Inf
	0x0000000000000000, 0x8000000000000000, // ±0
	0x0000000000000001, 0x8000000000000001, 0x000fffffffffffff, // subnormals
	0x7fefffffffffffff, 0xffefffffffffffff, // ±MaxFloat64
	0x3ff0000000000000, 0xbff0000000000000, // ±1
}

var ulpSpecials32 = []uint32{
	0x7fc00001, 0xffc0beef, 0x7f800000, 0xff800000, 0, 0x80000000,
	0x00000001, 0x80000001, 0x007fffff, 0x7f7fffff, 0x3f800000, 0xbf800000,
}

// ulpPairs turns fuzz bytes into (orig, recon) pairs at prec: each 9-byte
// record is a recon pattern, a second pattern and a mode byte choosing how
// orig relates to recon — a small step in bit-pattern space (crossing
// signs near ±0), an unrelated pattern, low-bit noise, or two specials.
func ulpPairs(data []byte, prec grid.Precision) (orig, recon []float64) {
	fromBits := func(u uint64) float64 {
		if prec == grid.Float32 {
			return float64(math.Float32frombits(uint32(u)))
		}
		return math.Float64frombits(u)
	}
	special := func(b byte) uint64 {
		if prec == grid.Float32 {
			return uint64(ulpSpecials32[int(b)%len(ulpSpecials32)])
		}
		return ulpSpecials[int(b)%len(ulpSpecials)]
	}
	for ; len(data) >= 9; data = data[9:] {
		r, x := binary.LittleEndian.Uint32(data), binary.LittleEndian.Uint32(data[4:])
		ru, xu := uint64(r), uint64(x)
		if prec == grid.Float64 {
			ru, xu = ru<<32|xu, xu<<32|ru
		}
		var ou uint64
		switch mode := data[8]; mode % 4 {
		case 0:
			ou = ru + uint64(int64(int8(x)))
		case 1:
			ou = xu
		case 2:
			ou = ru ^ xu&(1<<(x%uint32(prec.Bits()))-1)
		default:
			ru, ou = special(byte(r)), special(byte(x))
		}
		orig, recon = append(orig, fromBits(ou)), append(recon, fromBits(ru))
	}
	return orig, recon
}

// ulpFile frames orig against recon as a one-block residual file holding a
// ULP block, whatever the layout rule would pick.
func ulpFile(orig, recon []float64, width int) []byte {
	var st blockStats
	st.measure(orig, recon, width)
	payload := appendULP(nil, orig, recon, width, st.t, st.ulpBits(width))
	file := craftFile(idANS, width, len(orig), payload)
	file[HeaderSize+4] = FlagULP
	return file
}

// FuzzULPBlock codes fuzzed (orig, recon) pairs — NaN payloads, ±Inf, ±0,
// subnormals, sign crossings, both widths — and requires ApplyBlock to
// restore the original bits from what Encode writes and from a forced ULP
// block, over the whole block and over a fuzzed [lo, hi), which restores
// the whole apply's bits there and nothing outside. A ULP block with t out
// of range, a byte more or less of payload, or a pad bit set is a typed
// error for either range that leaves the values untouched; an in-range t
// changed by one either fails the same way or applies.
func FuzzULPBlock(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 0, 0, 0, 0}, false, uint16(0), uint16(1))
	f.Add([]byte{0, 0, 0, 0x80, 0xff, 0, 0, 0, 0, 1, 0, 0, 0, 0xfe, 0, 0, 0, 0}, true, uint16(1), uint16(2))
	var all []byte
	for i := byte(0); i < 16; i++ {
		all = append(all, i, 0, 0, 0, 15-i, 0, 0, 0, 3)
	}
	f.Add(all, false, uint16(3), uint16(11))
	f.Add(all, true, uint16(16), uint16(0))
	var smooth []byte
	for i := 0; i < 64; i++ {
		smooth = binary.LittleEndian.AppendUint32(smooth, math.Float32bits(float32(math.Sin(float64(i)/7))))
		smooth = append(smooth, byte(i*37), 0, 0, 0, byte(4*(i%3)))
	}
	f.Add(smooth, false, uint16(40), uint16(41))
	f.Add(smooth, true, uint16(7), uint16(64))

	f.Fuzz(ulpRoundTrip)
}

// ulpRoundTrip is FuzzULPBlock's property on one input; lo and hi are taken
// modulo the value count plus one, in order.
func ulpRoundTrip(t *testing.T, data []byte, wide bool, lo16, hi16 uint16) {
	prec, width := grid.Float32, 4
	if wide {
		prec, width = grid.Float64, 8
	}
	orig, recon := ulpPairs(data, prec)
	if len(orig) == 0 {
		return
	}
	lo, hi := int(lo16)%(len(orig)+1), int(hi16)%(len(orig)+1)
	if lo > hi {
		lo, hi = hi, lo
	}
	c, err := ByName(DefaultBackend)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := Encode(&buf, c, prec, orig, recon, []int{len(orig)}); err != nil {
		t.Fatal(err)
	}
	applyOver := func(what string, file []byte, lo, hi int) ([]float64, error) {
		idx, err := LoadIndex(bytes.NewReader(file))
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		vals := append([]float64(nil), recon...)
		err = ApplyBlock(bytes.NewReader(file), idx.Header, idx.Blocks[0], vals, lo, hi)
		return vals, err
	}
	// apply is the whole apply, checked against the apply over [lo, hi):
	// the same error type, and on success the same bits inside the range
	// and recon's outside it.
	apply := func(what string, file []byte) ([]float64, error) {
		whole, err := applyOver(what, file, 0, len(recon))
		part, partErr := applyOver(what, file, lo, hi)
		if errorType(err) != errorType(partErr) {
			t.Fatalf("%s: the whole apply says %v, [%d, %d) says %v", what, err, lo, hi, partErr)
		}
		want := recon
		if err == nil {
			want = slices.Concat(recon[:lo], whole[lo:hi], recon[hi:])
		}
		requireSameBits(t, fmt.Sprintf("%s: [%d, %d)", what, lo, hi), part, want, prec)
		return whole, err
	}
	for what, file := range map[string][]byte{"Encode": buf.Bytes(), "forced ULP block": ulpFile(orig, recon, width)} {
		got, err := apply(what, file)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		requireSameBits(t, what, got, orig, prec)
	}

	good := ulpFile(orig, recon, width)
	payload := good[HeaderSize+blockHeaderSize:]
	t0 := int(binary.LittleEndian.Uint16(payload))
	reframe := func(p []byte) []byte {
		file := craftFile(idANS, width, len(orig), p)
		file[HeaderSize+4] = FlagULP
		return file
	}
	withT := func(t int) []byte {
		p := append([]byte(nil), payload...)
		binary.LittleEndian.PutUint16(p, uint16(t))
		return reframe(p)
	}
	mutants := map[string][]byte{
		"t out of range": withT(8*width + maxExp(width) + 1),
		"a byte more":    reframe(append(append([]byte(nil), payload...), 0)),
		"t one above":    withT(t0 + 1),
		"t one below":    withT(max(t0-1, 0)),
		"pad bits set":   nil,
		"a byte less":    nil,
	}
	if len(payload) > ulpHeaderSize {
		mutants["a byte less"] = reframe(payload[:len(payload)-1])
	}
	var st blockStats
	if st.measure(orig, recon, width); st.ulpBits(width)%8 != 0 {
		p := append([]byte(nil), payload...)
		p[len(p)-1] |= 0x80 // the top bit of a partial last byte is pad
		mutants["pad bits set"] = reframe(p)
	}
	for what, file := range mutants {
		if file == nil {
			continue
		}
		if _, err := LoadIndex(bytes.NewReader(file)); err != nil {
			requireTyped(t, err) // a payload longer than any t allows
			continue
		}
		got, err := apply(what, file)
		mayApply := what == "t one above" || what == "t one below"
		switch {
		case err == nil && !mayApply:
			t.Fatalf("%s: ApplyBlock accepted the block", what)
		case err != nil:
			requireTyped(t, err)
			requireSameBits(t, what+": values after a refusal", got, recon, prec)
		}
	}
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
