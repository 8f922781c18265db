package compressor

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"sort"
	"testing"

	"rqm/internal/grid"
	"rqm/internal/predictor"
)

// pinnedShapes are the edge shapes of every rank the walks handle: n=1,
// prime and single-row/column dims, a 4-D field with a unit axis, and sizes
// where the interpolation walk reaches its cubic branch.
var pinnedShapes = [][]int{
	{1}, {2}, {3}, {127}, {4096},
	{1, 1}, {1, 37}, {37, 1}, {31, 29}, {64, 64},
	{1, 1, 1}, {5, 1, 13}, {13, 11, 7}, {16, 16, 16},
	{1, 1, 1, 1}, {3, 4, 5, 6}, {7, 1, 9, 2}, {8, 8, 8, 8},
}

// pinnedBounds spans the three bound modes plus a bound so tight that
// nearly every value is stored exactly.
var pinnedBounds = []struct {
	mode ErrorMode
	eb   float64
}{
	{ABS, 1e-3}, {REL, 1e-3}, {PWREL, 1e-2}, {ABS, 1e-12},
}

// TestWalkContainersPinned pins the bytes every prediction walk produces:
// for each predictor × supported rank, one SHA-256 over the SHA-256 of
// every container Compress writes (kernelField at each pinned shape of that
// rank, under each pinned bound) and the bits of every value Decompress
// returns. A walk that moves one prediction, one symbol or one
// reconstructed value changes its pair's hash. The entropy/<kind> rows pin
// the interleaved Huffman and tANS stages the same way, on the Lorenzo walk
// at every pinned shape.
func TestWalkContainersPinned(t *testing.T) {
	want := map[string]string{
		"interpolation-cubic/rank1": "f274ed68755cb7550fbd57ac99a67ef6de719c45af51db8752d92532320b1580",
		"interpolation-cubic/rank2": "def05fa87c447f0f2c7280845276eb91f9773944335199625d26492033a44cc1",
		"interpolation-cubic/rank3": "f9f7ea86e844970f130f740c93f244cc22a75af5a6d99de45c27e257d7b619f3",
		"interpolation-cubic/rank4": "1bf76cbffd1830b0048f819d3b6b01ccb721dbedb3e140d4e5cd0d2883e1c618",
		"interpolation/rank1":       "b8d20b15053d4e6dd477ef949e7736120dd8a84f9fddef7558eca2949637d645",
		"interpolation/rank2":       "aa7758f3b7d6ae3937efb121c586e0fcabfb8d24598549bcfad95bc7d69cddb2",
		"interpolation/rank3":       "ffec316dbc0589a2ba545add8c3af732fcf3af5ae57252fef8a932198fab5906",
		"interpolation/rank4":       "d8a0818a8a89cbb83f3e2631a7bac5cdd4c24cb7750d878e6113b64860f8572e",
		"lorenzo/rank1":             "932dbcfcbdcba2a6f359519bca30b9fd267e65a20848ed2ed0e885edf8d75dbe",
		"lorenzo/rank2":             "7c5d629aa4dd662e9151ffc0458ce961fdf4e69e1dfa98f511cab1a828f9bc18",
		"lorenzo/rank3":             "6814694001db961c14ea68c47ea89285d7d97acd059cdd9c75f88793ac1ec045",
		"lorenzo/rank4":             "f780b7de168c83a92e5e2c08f8fe639bc209016e693ca8fd5e060d59db7d9234",
		"lorenzo2/rank1":            "0feaad5f982675f19d7be777e56734f1ab68b8f1106cf322d8bfda8beb6d80e4",
		"regression/rank1":          "be94314efc170895a0f764f0b76b1b1e78fea2cbae45f5e0a42fcb89d2e7362a",
		"regression/rank2":          "d23541eb713db04bb4a635b82a272867741b92a366ced051b5b163e81d4b95ff",
		"regression/rank3":          "45722f6f850f5c64fd6db6b4e96d569a4293106470ee92d6f0f3c13d6a849baf",
		"regression/rank4":          "ae76ef7b925ff912c6c2d7d4ee4692874c0da3bc34a163df5944a74f320debdb",
		"entropy/huffman-ilv":       "6c6cf5a2155c17ff630fcf43097972ba4b3c888f5622e4a000e5a279cda7e703",
		"entropy/tans":              "9064e5b4919a9bd77384b70993a9cac8c8af8621efb21c75de739c7c474762f4",
	}
	got := map[string]hash.Hash{}
	used := map[EntropyKind]bool{}
	var scratch [8]byte
	pin := func(key string, f *grid.Field, opts Options) {
		h := got[key]
		if h == nil {
			h = sha256.New()
			got[key] = h
		}
		for _, b := range pinnedBounds {
			opts.Mode, opts.ErrorBound = b.mode, b.eb
			res, err := Compress(f, opts)
			if err != nil {
				t.Fatalf("%s %v %s: %v", key, f.Dims, b.mode, err)
			}
			back, err := Decompress(res.Bytes)
			if err != nil {
				t.Fatalf("%s %v %s: decompress: %v", key, f.Dims, b.mode, err)
			}
			if err := VerifyErrorBound(f, back, b.mode, b.eb); err != nil {
				t.Fatalf("%s %v %s %g: %v", key, f.Dims, b.mode, b.eb, err)
			}
			used[res.Stats.Entropy] = true
			sum := sha256.Sum256(res.Bytes)
			h.Write(sum[:])
			for _, v := range back.Data {
				binary.LittleEndian.PutUint64(scratch[:], math.Float64bits(v))
				h.Write(scratch[:])
			}
		}
	}
	for _, dims := range pinnedShapes {
		f := kernelField(t, dims...)
		for _, pk := range predictor.Kinds() {
			p, err := predictor.New(pk)
			if err != nil {
				t.Fatal(err)
			}
			if p.Supports(len(dims)) {
				pin(fmt.Sprintf("%s/rank%d", pk, len(dims)), f, Options{Predictor: pk})
			}
		}
		for _, ek := range []EntropyKind{EntropyInterleaved, EntropyTANS} {
			pin("entropy/"+ek.String(), f, Options{Predictor: predictor.Lorenzo, Entropy: ek})
		}
	}
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if sum := hex.EncodeToString(got[k].Sum(nil)); sum != want[k] {
			t.Errorf("%q: %q,", k, sum)
		}
	}
	if len(want) != len(got) {
		t.Errorf("pinned %d rows, ran %d", len(want), len(got))
	}
	for _, ek := range []EntropyKind{EntropyInterleaved, EntropyTANS} {
		if !used[ek] {
			t.Errorf("no pinned container was coded with %s", ek)
		}
	}
}
