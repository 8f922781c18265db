package datagen

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"rqm/internal/fft"
	"rqm/internal/grid"
)

// fieldHash is the SHA-256 of a field's name, precision, shape and the bits
// of every sample.
func fieldHash(f *grid.Field) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s %d %v\n", f.Name, f.Prec, f.Dims)
	var b [8]byte
	for _, v := range f.Data {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// pinnedTiny is every field of every dataset stand-in at Tiny scale, seed 42.
var pinnedTiny = map[string]string{
	"cesm/TS":                 "962e615371eabb4e54f469f6f4f0887358d82d3294927328f712e09f8a796dcb",
	"cesm/TROP_Z":             "53a84bb4535b1dfc73952fd8530ed83929d360c7312c28504be2c8c15954b7a2",
	"exafel/raw":              "cebe9331fa657029c248f13b7cd69b8e4c8fcd874408cb8bb5a68ebb9a777f7b",
	"hurricane/U":             "4be9e797c1c843a7c6cbfc4f7a0bf98dffb26e545900192d1ef157740eb80e87",
	"hurricane/TC":            "5236687af01d4f68ebb42fed0ff278c65f6bc9a308cfd5715d053ed6b0da18e2",
	"hacc/xx":                 "75884c9138a12ad913a9b9d45202a482d5278e9925aa2668436c3efdaaecfe6b",
	"hacc/vx":                 "6cd6de014574fa0de8e4af5a71cd0354161fbdd8c87c5414380886e35bd68f63",
	"nyx/dark_matter_density": "9c1e13a9562310316e00b515a0cb7fb1558754665fc4f1ce5aec479169597ce6",
	"nyx/temperature":         "09829e193e6d348c6f244eb7e674501011d8c34425a2ced6bdffd0e9b33fcbce",
	"nyx/velocity_z":          "f6bd2b70fae16238026ebd0b6044712bd77901f63ed36a1ce3f5c23d728f0c33",
	"scale/PRES":              "0a51f6d51b3f7cf633972d580dcd2d3cffb3f4bce85d02426c4d447bf9390b41",
	"qmcpack/einspline":       "eff00b87a5121843a1509d5975e6bdd942559d49dc7ac6606d19273e8237108b",
	"miranda/vx":              "a20316a31b440008856a785c2a4e62e2adbf86aaa798479b27c6fca3b171132a",
	"brown/pressure":          "884e74dcfe9c0bd3f791f37e94ab54c7e6237dc52b9db0552548904ea37b2f06",
	"rtm/snapshot_1":          "4659912a79745e53d9804754b3d4f1fefd6cd3ab12f32987107fd6740912f107",
	"rtm/snapshot_2":          "1d343cff893dc696f819a85d466ed02404bb090d67e482017a4b4eb5c53224aa",
	"rtm/snapshot_3":          "6f1dd3f7767125266835016d8f49092de4c8cde1b4c65392df9835b902770abe",
	"rtm/snapshot_4":          "d65d3892f235d50a64a45da6374faaa854db83ff3663a967a695cfb470586d16",
	"rtm/snapshot_5":          "a6be02f198ad1932e1086ad37c10c9ad8cf24f34dca0a1a5587cb312476191e4",
	"rtm/snapshot_6":          "cde9b0224b2955b05b22a9bb7e2e7f96279750ddcbb6b343819fd7d2f732f0c2",
	"mixed/q":                 "24fe97a8836bf20c8b3b8fb18e8181bf4bc1be9e7db08a86dd7cefe61f4eb563",
}

// pinnedSmall is the benchmark corpus at Small scale for seeds 1 and 7.
// Together its fields take every FFT path: Bluestein on 96 (nyx, miranda,
// mixed) and on 450×900 (cesm), radix-2 on 64 and 128, and a 1-D field
// without a transform (hacc).
var pinnedSmall = map[string]string{
	"nyx/temperature@1": "a932a3438384d1a8e86c74147f2899dc21f60b4f1890403049d0d5d547f7621e",
	"miranda/vx@1":      "d3e314f6e2867398efcaade1d7c80452a766e17903923a38e023a134a4473b78",
	"hacc/xx@1":         "4c076ab5868313d00ed431fb589cdb213c31f9b579b93073dfcb906a82d349ca",
	"cesm/TS@1":         "f3cfdfdfe8fff6aad266e33ba13d2fd428adf3f11b73061442236a3b1484bfe8",
	"mixed/q@1":         "da5171cc2933a1ab480ee881ae74abf862f63d8d60d4b040b0a223e0a5a2b0f2",
	"nyx/temperature@7": "f2b89d9309af422a1c6ba62abec306a7fbc6786bf9cffe98d6b6fc4bdf5ebd87",
	"miranda/vx@7":      "0ac75561ea52bed1883d5f9df0e3758268e8f82a2f7f449cddd11a782ac604cb",
	"hacc/xx@7":         "6e2505669880613a299667c13798bff3dc3808b8397de3cfbef8671bcac216bf",
	"cesm/TS@7":         "63b1c73109300dacebc5bd254aadcdfd92093258a25ecf179dff3e29281fc0e5",
	"mixed/q@7":         "dd6e1c70c1bc73f0e8417582da4562a5ba9b509b588165da345cb6681bc41ad6",
}

// pinnedSpectrum is the SHA-256 of the bits of the power spectrum of the
// Tiny mixed field (32×48×48: radix-2 on one axis, Bluestein on two).
const pinnedSpectrum = "84916aae23200e89cdd5e8b7d6599d9f5284e49958fea5bb61b1ab8c05149ade"

// TestFieldsPinned holds synthesis bit-identical: every field is pinned by
// hash, whether it comes from Generate or alone from GenerateField, and so is
// one PowerSpectrum result. A change to datagen or fft that moves one sample
// by one ulp fails here. The table is not edited to follow the code.
func TestFieldsPinned(t *testing.T) {
	t.Run("tiny", func(t *testing.T) {
		for _, name := range append(Names(), "mixed") {
			ds, err := Generate(name, 42, Tiny)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range ds.Fields {
				if got, want := fieldHash(f), pinnedTiny[f.Name]; got != want {
					t.Errorf("Generate(%q) field %s: hash %s, want %s", name, f.Name, got, want)
				}
				alone, err := GenerateField(f.Name, 42, Tiny)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := fieldHash(alone), pinnedTiny[f.Name]; got != want {
					t.Errorf("GenerateField(%q): hash %s, want %s", f.Name, got, want)
				}
			}
		}
	})
	t.Run("small", func(t *testing.T) {
		for _, seed := range []uint64{1, 7} {
			for _, path := range []string{"nyx/temperature", "miranda/vx", "hacc/xx", "cesm/TS", "mixed/q"} {
				key := fmt.Sprintf("%s@%d", path, seed)
				t.Run(key, func(t *testing.T) {
					t.Parallel()
					f, err := GenerateField(path, seed, Small)
					if err != nil {
						t.Fatal(err)
					}
					if got, want := fieldHash(f), pinnedSmall[key]; got != want {
						t.Errorf("%s: hash %s, want %s", key, got, want)
					}
				})
			}
		}
	})
	t.Run("spectrum", func(t *testing.T) {
		f, err := GenerateField("mixed/q", 42, Tiny)
		if err != nil {
			t.Fatal(err)
		}
		ps, err := fft.PowerSpectrum(f.Data, f.Dims)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		var b [8]byte
		for _, v := range ps {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != pinnedSpectrum {
			t.Errorf("PowerSpectrum(mixed/q): hash %s, want %s", got, pinnedSpectrum)
		}
	})
}
