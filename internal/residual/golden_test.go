package residual

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"

	"rqm/internal/ans"
	"rqm/internal/grid"
	"rqm/internal/huffman"
	"rqm/internal/poison"
)

// splitmix is splitmix64: a fixed, library-independent generator so the
// golden inputs can never drift with a math/rand revision.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// goldenCase is the fixed (orig, recon, blocks) input behind
// testdata/pre_pr20_*.rqr. Its five blocks cover what the format can hold:
// a well-predicted block whose high byte planes are near-constant and whose
// low plane is noise (stored as a raw plane), a one-value block, an odd-length
// block that is almost all zero residual, a block of random bit patterns
// (the whole-block raw fallback), and a block salted with NaN payloads, ±Inf,
// −0 and denormals on either side of the XOR.
func goldenCase(prec grid.Precision) (orig, recon []float64, blocks []int) {
	rng := splitmix(0x5eed20)
	unit := func() float64 { return float64(rng.next()>>11)/(1<<53) - 0.5 }
	add := func(o, r float64) { orig, recon = append(orig, o), append(recon, r) }

	for i := 0; i < 4096; i++ {
		x := float64(i)
		o := math.Sin(x/41) + 0.3*math.Cos(x/7)
		add(o, o+1e-4*unit())
	}
	add(math.Pi, 3.14)
	for i := 0; i < 777; i++ {
		o := 0.25 * float64(i)
		r := o
		if i%97 == 0 {
			r += 0.5
		}
		add(o, r)
	}
	// Random finite patterns at the storage width (one exponent bit cleared,
	// so no NaN or Inf can appear and narrowing never collapses them).
	for i := 0; i < 300; i++ {
		if prec == grid.Float32 {
			add(float64(math.Float32frombits(uint32(rng.next())&^(1<<30))),
				float64(math.Float32frombits(uint32(rng.next())&^(1<<30))))
		} else {
			add(math.Float64frombits(rng.next()&^(1<<62)), math.Float64frombits(rng.next()&^(1<<62)))
		}
	}
	specials := []float64{
		math.Float64frombits(0x7ff8000000000001), // quiet NaN, low payload bit
		math.Float64frombits(0x7ffcdead00000000), // quiet NaN, high payload
		math.Float64frombits(0xfff80000beef0000), // negative quiet NaN
		math.Float64frombits(0x7ff4000000000000), // signaling NaN
		math.Inf(1), math.Inf(-1),
		math.Copysign(0, -1), 0,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000fffffffffffff), // largest float64 denormal
		1e-40, -1e-40,                            // float32 denormals
		math.SmallestNonzeroFloat32,
		math.MaxFloat32, -math.MaxFloat64,
	}
	for i := 0; i < 1000; i++ {
		x := float64(i)
		o := 100 * math.Sin(x/29)
		r := o + 1e-3*unit()
		if i%5 == 0 {
			o = specials[(i/5)%len(specials)]
		}
		if i%45 == 3 {
			r = specials[(i/45)%len(specials)]
		}
		add(o, r)
	}
	return orig, recon, []int{4096, 1, 777, 300, 1000}
}

var goldenPrecs = []struct {
	tag  string
	prec grid.Precision
}{{"f32", grid.Float32}, {"f64", grid.Float64}}

var goldenBackends = []string{"ans", "huffman", "lz77"}

// eachGolden runs fn over every testdata/pre_pr20_<prec>_<backend>.rqr with
// the inputs it was written from. The files were written by the PR 20
// parent's Encode (commit 6f0ebf4) from goldenCase and are never rewritten:
// they are what "the same bytes" means.
func eachGolden(t *testing.T, fn func(t *testing.T, c Codec, prec grid.Precision, file []byte, orig, recon []float64, blocks []int)) {
	for _, pc := range goldenPrecs {
		orig, recon, blocks := goldenCase(pc.prec)
		for _, backend := range goldenBackends {
			t.Run(pc.tag+"/"+backend, func(t *testing.T) {
				c, err := ByName(backend)
				if err != nil {
					t.Fatal(err)
				}
				file, err := os.ReadFile(fmt.Sprintf("testdata/pre_pr20_%s_%s.rqr", pc.tag, backend))
				if err != nil {
					t.Fatal(err)
				}
				fn(t, c, pc.prec, file, orig, recon, blocks)
			})
		}
	}
}

// storageBits is v's bit pattern at the storage width.
func storageBits(v float64, prec grid.Precision) uint64 {
	if prec == grid.Float32 {
		return uint64(math.Float32bits(float32(v)))
	}
	return math.Float64bits(v)
}

func requireSameBits(t *testing.T, what string, got, want []float64, prec grid.Precision) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		if g, w := storageBits(got[i], prec), storageBits(want[i], prec); g != w {
			t.Fatalf("%s: value %d restores to bits %#x, want %#x", what, i, g, w)
		}
	}
}

// v2Goldens pins testdata/v2_<prec>_<backend>.rqr by SHA-256: the version-2
// files Encode writes from goldenCase, holding ULP blocks beside XOR ones.
var v2Goldens = map[string]string{
	"v2_f32_ans.rqr":     "95e086737d937520f0e8b188b9252260d9520e71de5d6045ee4a901e72ddd67d",
	"v2_f32_huffman.rqr": "1fe9129d56c2682bcdff84cfb86061a81d13d5f01f5e72a2fa1e5c816c865626",
	"v2_f32_lz77.rqr":    "b12b3c6a799299453a51d9feae7eaeb2971049aefdf5ddf3ea62955db11ce4af",
	"v2_f64_ans.rqr":     "d38d1ad520d2f087a884751089c5eb55cbabad04df69fdba4d47fed4c14baf0f",
	"v2_f64_huffman.rqr": "9c5a73aecfa3c11a5b7a542b0ccb6875aec8161e93fe31cd9dba49bc272f2907",
	"v2_f64_lz77.rqr":    "d6574e3594e440169f51306b28ea4352f74201291b0fdbd7d6f05358638a623d",
}

// layoutCounts counts what a file's blocks hold: ULP blocks, raw blocks,
// and the raw and coded planes of its XOR blocks.
func layoutCounts(file []byte, idx *Index) (ulp, rawBlocks, rawPlanes, codedPlanes int) {
	for _, e := range idx.Blocks {
		switch {
		case e.Flags&FlagULP != 0:
			ulp++
			continue
		case e.Flags&FlagRaw != 0:
			rawBlocks++
			continue
		}
		p := file[e.Offset+blockHeaderSize:][:e.EncBytes]
		for len(p) > 0 {
			if p[0]&FlagRaw != 0 {
				rawPlanes++
			} else {
				codedPlanes++
			}
			p = p[planeHeaderSize+int(binary.LittleEndian.Uint32(p[1:])):]
		}
	}
	return
}

// restoreAll applies every block of file to a copy of recon and requires
// the original's bits and the header's original hash back.
func restoreAll(t *testing.T, what string, file []byte, orig, recon []float64, prec grid.Precision) {
	t.Helper()
	r := bytes.NewReader(file)
	idx, err := LoadIndex(r)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	got := append([]float64(nil), recon...)
	start := 0
	for i, e := range idx.Blocks {
		if err := ApplyBlock(r, idx.Header, e, got[start:start+e.Values]); err != nil {
			t.Fatalf("%s: block %d: %v", what, i, err)
		}
		start += e.Values
	}
	requireSameBits(t, "ApplyBlock over "+what, got, orig, prec)
	sum, err := OriginalHash(got, prec)
	if err != nil {
		t.Fatal(err)
	}
	if sum != idx.Header.OriginalHash {
		t.Fatalf("%s: restored payload does not hash to the header's original hash", what)
	}
}

// TestGoldenSameBytes: the reader restores the original bit for bit from
// every parent-written pre_pr20 file (version 1, XOR blocks only) and every
// pinned v2 golden, and Encode reproduces each v2 golden byte for byte.
func TestGoldenSameBytes(t *testing.T) {
	eachGolden(t, func(t *testing.T, c Codec, prec grid.Precision, file []byte, orig, recon []float64, blocks []int) {
		idx, err := LoadIndex(bytes.NewReader(file))
		if err != nil {
			t.Fatal(err)
		}
		// The fixture must keep holding what it was built to hold.
		ulp, rawBlocks, rawPlanes, codedPlanes := layoutCounts(file, idx)
		if ulp != 0 || rawBlocks == 0 || rawPlanes == 0 || codedPlanes == 0 || idx.Blocks[1].Values != 1 {
			t.Fatalf("fixture lost its coverage: %d ULP blocks, %d raw blocks, %d raw planes, %d coded planes, block 1 of %d values",
				ulp, rawBlocks, rawPlanes, codedPlanes, idx.Blocks[1].Values)
		}
		restoreAll(t, "the parent's file", file, orig, recon, prec)

		name := fmt.Sprintf("v2_f%d_%s.rqr", prec.Bits(), c.Name())
		v2, err := os.ReadFile("testdata/" + name)
		if err != nil {
			t.Fatal(err)
		}
		if sum := sha256.Sum256(v2); hex.EncodeToString(sum[:]) != v2Goldens[name] {
			t.Fatalf("%s hashes to %x, pinned %s", name, sum, v2Goldens[name])
		}
		var buf bytes.Buffer
		n, err := Encode(&buf, c, prec, orig, recon, blocks)
		if err != nil {
			t.Fatal(err)
		}
		if n != int64(buf.Len()) || !bytes.Equal(buf.Bytes(), v2) {
			t.Fatalf("Encode wrote %d bytes that differ from the %d-byte %s", buf.Len(), len(v2), name)
		}
		idx, err = LoadIndex(bytes.NewReader(v2))
		if err != nil {
			t.Fatal(err)
		}
		ulp, rawBlocks, rawPlanes, codedPlanes = layoutCounts(v2, idx)
		if ulp == 0 || rawBlocks == 0 || rawPlanes == 0 || codedPlanes == 0 || idx.Blocks[1].Values != 1 {
			t.Fatalf("%s lost its coverage: %d ULP blocks, %d raw blocks, %d raw planes, %d coded planes, block 1 of %d values",
				name, ulp, rawBlocks, rawPlanes, codedPlanes, idx.Blocks[1].Values)
		}
		restoreAll(t, name, v2, orig, recon, prec)
	})
}

// TestApplyBlockMatchesReadBlockAndReference: on every block of every golden
// file — raw blocks, raw planes and coded planes alike — ApplyBlock, ReadBlock
// followed by Apply, and the element-order Compute/Apply reference agree bit
// for bit.
func TestApplyBlockMatchesReadBlockAndReference(t *testing.T) {
	eachGolden(t, func(t *testing.T, _ Codec, prec grid.Precision, file []byte, orig, recon []float64, _ []int) {
		r := bytes.NewReader(file)
		idx, err := LoadIndex(r)
		if err != nil {
			t.Fatal(err)
		}
		start := 0
		for i, e := range idx.Blocks {
			o, rc := orig[start:start+e.Values], recon[start:start+e.Values]
			start += e.Values
			ref, err := Compute(o, rc, prec)
			if err != nil {
				t.Fatal(err)
			}
			raw, err := ReadBlock(r, idx.Header, e)
			if err != nil {
				t.Fatalf("block %d: ReadBlock: %v", i, err)
			}
			if !bytes.Equal(raw, ref) {
				t.Fatalf("block %d: ReadBlock differs from the element-order Compute reference", i)
			}
			viaRead := append([]float64(nil), rc...)
			if err := Apply(viaRead, raw, prec); err != nil {
				t.Fatal(err)
			}
			viaApply := append([]float64(nil), rc...)
			if err := ApplyBlock(r, idx.Header, e, viaApply); err != nil {
				t.Fatalf("block %d: ApplyBlock: %v", i, err)
			}
			requireSameBits(t, fmt.Sprintf("block %d: ReadBlock+Apply", i), viaRead, o, prec)
			requireSameBits(t, fmt.Sprintf("block %d: ApplyBlock", i), viaApply, o, prec)
			if err := VerifyBlock(r, idx.Header, e, true); err != nil {
				t.Fatalf("block %d: deep VerifyBlock: %v", i, err)
			}
			if err := ApplyBlock(r, idx.Header, e, viaApply[:len(viaApply)-1]); !errors.Is(err, ErrCorrupt) && e.Values > 1 {
				t.Fatalf("block %d: ApplyBlock onto %d values: %v, want ErrCorrupt", i, e.Values-1, err)
			}
		}
	})
}

// TestReadBlockResultSurvivesScratchReuse: what ReadBlock hands out is the
// caller's. The first block's bytes (a raw block in this file: the payload
// itself, before this PR) stay intact while the same goroutine decodes every
// other block through the same pooled scratch.
func TestReadBlockResultSurvivesScratchReuse(t *testing.T) {
	eachGolden(t, func(t *testing.T, _ Codec, prec grid.Precision, file []byte, orig, recon []float64, blocks []int) {
		r := bytes.NewReader(file)
		idx, err := LoadIndex(r)
		if err != nil {
			t.Fatal(err)
		}
		for _, keep := range []int{1, 0} { // block 1 is FlagRaw, block 0 is coded
			kept, err := ReadBlock(r, idx.Header, idx.Blocks[keep])
			if err != nil {
				t.Fatal(err)
			}
			want := append([]byte(nil), kept...)
			for i, e := range idx.Blocks {
				if _, err := ReadBlock(r, idx.Header, e); err != nil {
					t.Fatalf("block %d: %v", i, err)
				}
				if err := VerifyBlock(r, idx.Header, e, true); err != nil {
					t.Fatalf("block %d: %v", i, err)
				}
			}
			if !bytes.Equal(kept, want) {
				t.Fatalf("ReadBlock result for block %d changed while other blocks were decoded", keep)
			}
		}
	})
}

// TestApplyBlockConcurrentReaders runs ApplyBlock from two goroutines over
// separate readers of one file; under -race this is the proof that pooled
// scratch is never shared between calls in flight.
func TestApplyBlockConcurrentReaders(t *testing.T) {
	eachGolden(t, func(t *testing.T, _ Codec, prec grid.Precision, file []byte, orig, recon []float64, _ []int) {
		idx, err := LoadIndex(bytes.NewReader(file))
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				r := bytes.NewReader(file)
				for round := 0; round < 20; round++ {
					got := append([]float64(nil), recon...)
					start := 0
					for i, e := range idx.Blocks {
						if err := ApplyBlock(r, idx.Header, e, got[start:start+e.Values]); err != nil {
							t.Errorf("block %d: %v", i, err)
							return
						}
						start += e.Values
					}
					for i := range orig {
						if storageBits(got[i], prec) != storageBits(orig[i], prec) {
							t.Errorf("round %d: value %d differs", round, i)
							return
						}
					}
				}
			}()
		}
		wg.Wait()
	})
}

// craftFile frames plane sub-records (each already carrying its 5-byte
// header) as a one-block residual file of the given backend and width.
func craftFile(backendID uint8, width, values int, payload []byte) []byte {
	file := make([]byte, HeaderSize, HeaderSize+blockHeaderSize+len(payload))
	binary.LittleEndian.PutUint32(file[0:], Magic)
	file[4], file[5], file[6] = Version, backendID, byte(width)
	binary.LittleEndian.PutUint64(file[8:], uint64(values))
	binary.LittleEndian.PutUint32(file[48:], 1)
	file = binary.LittleEndian.AppendUint32(file, uint32(values))
	file = append(file, 0)
	file = binary.LittleEndian.AppendUint32(file, uint32(len(payload)))
	file = binary.LittleEndian.AppendUint32(file, crc32.ChecksumIEEE(payload))
	return append(file, payload...)
}

// TestWideSymbolTableRejectedAtParse: a plane whose coding table names a
// symbol above 0xff cannot describe bytes. Both table-driven backends refuse
// it at table parse — the crafted planes end right after the table, so a
// decoder that looked for the stream first would report truncation instead.
func TestWideSymbolTableRejectedAtParse(t *testing.T) {
	tab, err := ans.Build(map[uint32]int64{3: 10, 300: 5})
	if err != nil {
		t.Fatal(err)
	}
	ansTable := tab.Serialize()
	tab.Release()
	cb, err := huffman.Build(map[uint32]int64{3: 10, 300: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		backend string
		table   []byte
	}{{"ans", ansTable}, {"huffman", cb.Serialize()}} {
		c, err := ByName(tc.backend)
		if err != nil {
			t.Fatal(err)
		}
		const values, width = 15, 4
		var payload []byte
		for p := 0; p < width; p++ {
			payload = append(payload, 0)
			payload = binary.LittleEndian.AppendUint32(payload, uint32(len(tc.table)))
			payload = append(payload, tc.table...)
		}
		file := craftFile(c.ID(), width, values, payload)
		idx, err := LoadIndex(bytes.NewReader(file))
		if err != nil {
			t.Fatalf("%s: crafted file does not index: %v", tc.backend, err)
		}
		vals := make([]float64, values)
		for what, err := range map[string]error{
			"ApplyBlock":  ApplyBlock(bytes.NewReader(file), idx.Header, idx.Blocks[0], vals),
			"VerifyBlock": VerifyBlock(bytes.NewReader(file), idx.Header, idx.Blocks[0], true),
			"ReadBlock": func() error {
				_, err := ReadBlock(bytes.NewReader(file), idx.Header, idx.Blocks[0])
				return err
			}(),
		} {
			if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "outside byte range") {
				t.Fatalf("%s: %s: %v, want ErrCorrupt naming the out-of-range symbol", tc.backend, what, err)
			}
		}
		for i, v := range vals {
			if v != 0 {
				t.Fatalf("%s: failed ApplyBlock changed value %d", tc.backend, i)
			}
		}
		if err := VerifyBlock(bytes.NewReader(file), idx.Header, idx.Blocks[0], false); err != nil {
			t.Fatalf("%s: shallow VerifyBlock of a CRC-clean block: %v", tc.backend, err)
		}
	}
}

// smoothBlocks is a well-predicted field of n values per block at prec.
func smoothBlocks(prec grid.Precision, nblocks, n int) (orig, recon []float64, blocks []int) {
	rng := splitmix(7)
	for i := 0; i < nblocks*n; i++ {
		x := float64(i)
		o := math.Sin(x/101) + 0.2*math.Cos(x/17)
		if prec == grid.Float32 {
			o = float64(float32(o))
		}
		orig = append(orig, o)
		recon = append(recon, o+1e-5*(float64(rng.next()>>11)/(1<<53)-0.5))
	}
	for b := 0; b < nblocks; b++ {
		blocks = append(blocks, n)
	}
	return
}

// sparseBlocks is smoothBlocks reconstructed exactly on seven values in
// eight: a mostly-zero residual, which the layout rule gives to the XOR
// layout.
func sparseBlocks(prec grid.Precision, nblocks, n int) (orig, recon []float64, blocks []int) {
	orig, recon, blocks = smoothBlocks(prec, nblocks, n)
	for i := range recon {
		if i%8 != 0 {
			recon[i] = orig[i]
		}
	}
	return
}

// layoutBlocks is a field whose every block the rule codes in the given
// layout (FlagULP, or 0 for XOR planes), held to it.
func layoutBlocks(t testing.TB, c Codec, prec grid.Precision, nblocks, n int, layout uint8) (orig, recon []float64, blocks []int) {
	t.Helper()
	if layout == FlagULP {
		// Moved inside one binade, [2, 4): a reconstruction across a sign
		// change from its original is billions of ULPs away from it, and
		// one across a binade boundary above it raises the block's t.
		orig, recon, blocks = smoothBlocks(prec, nblocks, n)
		for i, o := range orig {
			lifted := 3 + 0.4*o
			if prec == grid.Float32 {
				lifted = float64(float32(lifted))
			}
			orig[i], recon[i] = lifted, lifted+(recon[i]-o)
		}
	} else {
		orig, recon, blocks = sparseBlocks(prec, nblocks, n)
	}
	var buf bytes.Buffer
	if _, err := Encode(&buf, c, prec, orig, recon, blocks); err != nil {
		t.Fatal(err)
	}
	idx, err := LoadIndex(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range idx.Blocks {
		if e.Flags&^FlagRaw != layout {
			t.Fatalf("block %d coded with flags %#x, want layout %#x", i, e.Flags, layout)
		}
	}
	return orig, recon, blocks
}

// layoutName names a layout in test and benchmark names.
func layoutName(layout uint8) string {
	if layout == FlagULP {
		return "ulp"
	}
	return "xor"
}

// allocsOf is testing.AllocsPerRun that also reports bytes: the mean objects
// and bytes one warm run of fn allocates, on one P so the sync.Pools the
// guarded paths lean on are not missed by a migrating goroutine.
func allocsOf(fn func()) (objects, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 10
	var before, after runtime.MemStats
	fn() // warm the pools
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / runs, float64(after.TotalAlloc-before.TotalAlloc) / runs
}

// TestSteadyStateAllocations guards the pooled paths: once the pools are
// warm, what Encode and ApplyBlock allocate per block is nothing, on every
// backend, in both layouts and whatever the plane count — no plane-sized
// symbol slice, no histogram map, no coding table or codebook, no matcher,
// no ULP read buffer.
func TestSteadyStateAllocations(t *testing.T) {
	if poison.Enabled {
		t.Skip("sync.Pool sheds items under the race detector")
	}
	for _, backend := range goldenBackends {
		c, err := ByName(backend)
		if err != nil {
			t.Fatal(err)
		}
		for _, pc := range goldenPrecs {
			for _, sh := range []struct {
				n      int
				layout uint8
			}{{4096, 0}, {65536, 0}, {4096, FlagULP}, {65536, FlagULP}} {
				n := sh.n
				orig, recon, blocks := layoutBlocks(t, c, pc.prec, 5, n, sh.layout)
				encode := func(nblocks int) func() {
					return func() {
						if _, err := Encode(io.Discard, c, pc.prec, orig[:nblocks*n], recon[:nblocks*n], blocks[:nblocks]); err != nil {
							t.Fatal(err)
						}
					}
				}
				// The marginal block: what Encode pays once per call (the
				// SHA-256 state) cancels out.
				o5, b5 := allocsOf(encode(5))
				o1, b1 := allocsOf(encode(1))
				encObjects, encBytes := (o5-o1)/4, (b5-b1)/4

				var buf bytes.Buffer
				if _, err := Encode(&buf, c, pc.prec, orig, recon, blocks); err != nil {
					t.Fatal(err)
				}
				r := bytes.NewReader(buf.Bytes())
				idx, err := LoadIndex(r)
				if err != nil {
					t.Fatal(err)
				}
				vals := make([]float64, n)
				applyObjects, applyBytes := allocsOf(func() {
					copy(vals, recon[n:2*n])
					if err := ApplyBlock(r, idx.Header, idx.Blocks[1], vals); err != nil {
						t.Fatal(err)
					}
				})
				t.Logf("%s/%s/%s/%d values: per block Encode %.1f objects %.0f B, ApplyBlock %.1f objects %.0f B",
					backend, pc.tag, layoutName(sh.layout), n, encObjects, encBytes, applyObjects, applyBytes)
				// Under one object and a few hundred bytes per block is the
				// runtime's own noise across ten runs, not a code path.
				const maxObjects, maxBytes = 0.5, 512.0
				if encObjects > maxObjects || applyObjects > maxObjects || encBytes > maxBytes || applyBytes > maxBytes {
					t.Fatalf("%s/%s/%s/%d values: per-block allocations above the guard (%.0f objects, %.0f B)",
						backend, pc.tag, layoutName(sh.layout), n, maxObjects, maxBytes)
				}
			}
		}
	}
}
