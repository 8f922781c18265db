package ans

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	mathbits "math/bits"
	"math/rand"
	"slices"
	"testing"
)

func freqsOf(syms []uint32) map[uint32]int64 {
	m := map[uint32]int64{}
	for _, s := range syms {
		m[s]++
	}
	return m
}

func roundTrip(t *testing.T, syms []uint32) {
	t.Helper()
	tab, err := Build(freqsOf(syms))
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	defer tab.Release()
	stream, states, bits, err := tab.Encode(nil, syms, nil)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	// Re-parse the serialized table: decoding must work from the wire form.
	ser := tab.Serialize()
	tab2, n, err := Parse(ser)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	defer tab2.Release()
	if n != len(ser) {
		t.Fatalf("Parse consumed %d of %d bytes", n, len(ser))
	}
	out := make([]uint32, len(syms))
	if err := tab2.Decode(stream, states, bits, out); err != nil {
		t.Fatalf("Decode: %v", err)
	}
	for i := range out {
		if out[i] != syms[i] {
			t.Fatalf("symbol %d: decoded %d, want %d", i, out[i], syms[i])
		}
	}
}

func TestRoundTripShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := [][]uint32{
		{7},
		{7, 7, 7},
		{1, 2},
		{1, 2, 3, 4, 5},
	}
	// Quantization-code-like: concentrated around 32768.
	big := make([]uint32, 100000)
	for i := range big {
		v := 32768
		for rng.Intn(2) == 0 && v < 32800 {
			v++
		}
		if rng.Intn(2) == 0 {
			v = 32768 - (v - 32768)
		}
		big[i] = uint32(v)
	}
	cases = append(cases, big)
	// Uniform over a wide alphabet.
	wide := make([]uint32, 50000)
	for i := range wide {
		wide[i] = uint32(rng.Intn(3000))
	}
	cases = append(cases, wide)
	// Skewed with rare outliers.
	skew := make([]uint32, 20000)
	for i := range skew {
		if rng.Intn(1000) == 0 {
			skew[i] = uint32(1 << 20)
		} else {
			skew[i] = uint32(rng.Intn(3))
		}
	}
	cases = append(cases, skew)
	for ci, syms := range cases {
		t.Logf("case %d: %d symbols", ci, len(syms))
		roundTrip(t, syms)
	}
}

func TestCompressionBeatsLog2Alphabet(t *testing.T) {
	// A heavily skewed stream must code well below 1 bit/symbol — the
	// capability Huffman lacks and the reason the codec exists.
	rng := rand.New(rand.NewSource(2))
	syms := make([]uint32, 1<<16)
	for i := range syms {
		if rng.Intn(100) == 0 {
			syms[i] = uint32(1 + rng.Intn(4))
		}
	}
	tab, err := Build(freqsOf(syms))
	if err != nil {
		t.Fatal(err)
	}
	defer tab.Release()
	stream, _, bits, err := tab.Encode(nil, syms, nil)
	if err != nil {
		t.Fatal(err)
	}
	bps := float64(bits) / float64(len(syms))
	if bps >= 0.5 {
		t.Fatalf("99%%-zero stream coded at %.3f bits/symbol; want < 0.5", bps)
	}
	if len(stream)*8 < int(bits) {
		t.Fatalf("stream of %d bytes cannot hold %d bits", len(stream), bits)
	}
	// The modeled mean must track the realized rate.
	if mb := tab.MeanBits(); math.Abs(mb-bps) > 0.15*bps+0.05 {
		t.Fatalf("MeanBits %.3f vs realized %.3f bits/symbol", mb, bps)
	}
}

func TestEncodeLUTMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	syms := make([]uint32, 10000)
	for i := range syms {
		syms[i] = uint32(rng.Intn(50))
	}
	tab, err := Build(freqsOf(syms))
	if err != nil {
		t.Fatal(err)
	}
	defer tab.Release()
	lut := make([]uint32, tab.MaxSymbol()+1)
	tab.FillLUT(lut)
	sa, stA, bitsA, err := tab.Encode(nil, syms, nil)
	if err != nil {
		t.Fatal(err)
	}
	sb, stB, bitsB, err := tab.Encode(nil, syms, lut)
	if err != nil {
		t.Fatal(err)
	}
	if string(sa) != string(sb) || stA != stB || bitsA != bitsB {
		t.Fatal("LUT and map encodes differ")
	}
}

func TestUnknownSymbolErrors(t *testing.T) {
	tab, err := Build(map[uint32]int64{1: 5, 2: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer tab.Release()
	if _, _, _, err := tab.Encode(nil, []uint32{1, 99}, nil); err == nil {
		t.Fatal("want error encoding symbol outside table")
	}
}

func TestAlphabetTooLarge(t *testing.T) {
	freqs := map[uint32]int64{}
	for s := uint32(0); s < (1<<MaxTableLog)+1; s++ {
		freqs[s] = 1
	}
	if _, err := Build(freqs); !errors.Is(err, ErrAlphabetTooLarge) {
		t.Fatalf("got %v, want ErrAlphabetTooLarge", err)
	}
}

func TestParseRejectsCorruption(t *testing.T) {
	syms := []uint32{1, 1, 2, 3, 3, 3, 4}
	tab, err := Build(freqsOf(syms))
	if err != nil {
		t.Fatal(err)
	}
	defer tab.Release()
	good := tab.Serialize()
	if _, _, err := Parse(nil); err == nil {
		t.Fatal("nil table parsed")
	}
	if _, _, err := Parse(good[:1]); err == nil {
		t.Fatal("1-byte table parsed")
	}
	for i := range good {
		for delta := byte(1); delta < 4; delta++ {
			bad := append([]byte(nil), good...)
			bad[i] += delta
			if _, n, err := Parse(bad); err == nil {
				// A mutation may still parse structurally (e.g. the symbol
				// delta changed); it must at least consume what it declared
				// and round-trip internally consistent.
				if n <= 0 || n > len(bad) {
					t.Fatalf("byte %d: accepted with bad length %d", i, n)
				}
			}
		}
	}
	// Truncations must never parse to success past the histogram sum check
	// and must never panic.
	for cut := 0; cut < len(good); cut++ {
		if _, _, err := Parse(good[:cut]); err == nil {
			t.Fatalf("truncation at %d parsed", cut)
		}
	}
}

func TestDecodeRejectsBadStatesAndTruncation(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	syms := make([]uint32, 4096)
	for i := range syms {
		syms[i] = uint32(rng.Intn(16))
	}
	tab, err := Build(freqsOf(syms))
	if err != nil {
		t.Fatal(err)
	}
	defer tab.Release()
	stream, states, bits, err := tab.Encode(nil, syms, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]uint32, len(syms))
	bad := states
	bad[0] = 1 << MaxTableLog
	if err := tab.Decode(stream, bad, bits, out); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("out-of-range state: got %v", err)
	}
	if err := tab.Decode(stream[:len(stream)/2], states, bits, out); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short stream: got %v", err)
	}
	if err := tab.Decode(stream, states, bits/2, out); !errors.Is(err, ErrTruncated) {
		// Fewer declared bits than the symbols need must surface as
		// truncation (never an out-of-bounds read).
		t.Fatalf("short bit count: got %v", err)
	}
}

func FuzzParse(f *testing.F) {
	syms := []uint32{1, 1, 2, 3, 3, 3, 4, 70000}
	tab, err := Build(freqsOf(syms))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(tab.Serialize())
	// The same table followed by a real stream, and by a short one.
	stream, states, _, err := tab.Encode(nil, syms, nil)
	if err != nil {
		f.Fatal(err)
	}
	withStream := tab.Serialize()
	for _, st := range states {
		withStream = binary.LittleEndian.AppendUint32(withStream, st)
	}
	f.Add(append(withStream, stream...))
	f.Add(append(slices.Clone(withStream), 0xa5))
	tab.Release()
	f.Add([]byte{12, 1, 1, 255})
	f.Add([]byte{5, 2, 1, 31, 200, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0x0f})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		tab, n, err := Parse(data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d", n, len(data))
		}
		// An accepted table must round-trip through Serialize/Parse.
		ser := tab.Serialize()
		tab2, _, err := Parse(ser)
		if err != nil {
			t.Fatalf("re-parse of accepted table: %v", err)
		}
		tab2.Release()
		defer tab.Release()

		// The bytes after the table drive the kernels as a hostile stream:
		// two states, then bits. Kernel and oracle must reach the same
		// verdict, and what decodes must encode back to what the oracle
		// encodes.
		rest := data[n:]
		if len(rest) < 4*NumStates {
			return
		}
		var states [NumStates]uint32
		for i := range states {
			states[i] = binary.LittleEndian.Uint32(rest[4*i:]) % (2 << tab.tableLog)
		}
		stream := rest[4*NumStates:]
		ref := newRefTable(tab.tableLog, slices.Clone(tab.syms), slices.Clone(tab.norm))
		for _, count := range []int{1, 2, 65} {
			got, want := make([]uint32, count), make([]uint32, count)
			bits := uint64(len(stream)) * 8
			gotErr := tab.Decode(stream, states, bits, got)
			wantErr := ref.decode(stream, states, bits, want)
			if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && !errors.Is(gotErr, wantErr)) {
				t.Fatalf("%d symbols: kernel says %v, oracle says %v", count, gotErr, wantErr)
			}
			if tab.MaxSymbol() <= 0xff {
				asBytes := make([]byte, count)
				if byteErr := tab.DecodeBytes(stream, states, bits, asBytes); (wantErr == nil) != (byteErr == nil) {
					t.Fatalf("%d symbols: byte kernel says %v, oracle says %v", count, byteErr, wantErr)
				}
				for i := range asBytes {
					if wantErr == nil && uint32(asBytes[i]) != want[i] {
						t.Fatalf("%d symbols: byte kernel decodes symbol %d differently", count, i)
					}
				}
			}
			if wantErr != nil {
				continue
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%d symbols: kernel and oracle decode differently", count)
			}
			wantStream, wantStates, wantBits := ref.encode(want)
			gotStream, gotStates, gotBits, err := tab.Encode(nil, want, nil)
			if err != nil || !bytes.Equal(gotStream, wantStream) || gotStates != wantStates || gotBits != wantBits {
				t.Fatalf("%d symbols: re-encode differs from the oracle (err %v)", count, err)
			}
		}
	})
}

// refTable is the pre-PR-20 coding table, kept verbatim as the oracle: three
// parallel decode arrays and a per-symbol encode segment, driven by the
// counted-loop encoder and the per-symbol bit reader below.
type refTable struct {
	tableLog uint
	size     uint32
	syms     []uint32
	norm     []uint32
	dsym     []uint32
	dbits    []uint8
	dnew     []uint32
	normBase []uint32
	estate   []uint32
	index    map[uint32]int
}

func newRefTable(tableLog uint, syms, norm []uint32) *refTable {
	t := &refTable{tableLog: tableLog, size: 1 << tableLog, syms: syms, norm: norm, index: map[uint32]int{}}
	size := int(t.size)
	for i, s := range syms {
		t.index[s] = i
	}
	t.dsym = make([]uint32, size)
	t.dbits = make([]uint8, size)
	t.dnew = make([]uint32, size)
	t.estate = make([]uint32, size)
	t.normBase = make([]uint32, len(syms))
	step := t.size>>1 + t.size>>3 + 3
	mask := t.size - 1
	pos := uint32(0)
	for j := range syms {
		for c := uint32(0); c < norm[j]; c++ {
			t.dsym[pos] = uint32(j)
			pos = (pos + step) & mask
		}
	}
	var base uint32
	for j, n := range norm {
		t.normBase[j] = base
		base += n
	}
	next := append([]uint32(nil), norm...)
	for p := 0; p < size; p++ {
		j := t.dsym[p]
		x := next[j]
		next[j]++
		nb := tableLog - uint(mathbits.Len32(x)) + 1
		t.dbits[p] = uint8(nb)
		t.dnew[p] = x<<nb - t.size
		t.estate[t.normBase[j]+(x-norm[j])] = uint32(p)
		t.dsym[p] = t.syms[j]
	}
	return t
}

func (t *refTable) encode(syms []uint32) ([]byte, [NumStates]uint32, uint64) {
	var states [NumStates]uint32
	for i := range states {
		states[i] = t.size
	}
	var acc uint64
	var accN uint
	var totalBits uint64
	var buf []byte
	for i := len(syms) - 1; i >= 0; i-- {
		j := t.index[syms[i]]
		n := t.norm[j]
		lane := i % NumStates
		x := states[lane]
		nb := uint(0)
		for x>>nb >= n<<1 {
			nb++
		}
		if nb > 0 {
			acc |= uint64(x&(1<<nb-1)) << accN
			accN += nb
			totalBits += uint64(nb)
			for accN >= 8 {
				buf = append(buf, byte(acc))
				acc >>= 8
				accN -= 8
			}
		}
		states[lane] = t.estate[t.normBase[j]+(x>>nb-n)] + t.size
	}
	if accN > 0 {
		buf = append(buf, byte(acc))
	}
	for i := range states {
		states[i] -= t.size
	}
	return buf, states, totalBits
}

func (t *refTable) decode(stream []byte, states [NumStates]uint32, totalBits uint64, out []uint32) error {
	if totalBits > uint64(len(stream))*8 {
		return ErrTruncated
	}
	var st [NumStates]uint32
	for i, s := range states {
		if s >= t.size {
			return ErrCorrupt
		}
		st[i] = s
	}
	bitpos := totalBits
	for i := range out {
		lane := i % NumStates
		x := st[lane]
		out[i] = t.dsym[x]
		nb := uint(t.dbits[x])
		var refill uint32
		if nb > 0 {
			if uint64(nb) > bitpos {
				return ErrTruncated
			}
			bitpos -= uint64(nb)
			refill = refReadBitsAt(stream, bitpos, nb)
		}
		ns := t.dnew[x] + refill
		if ns >= t.size {
			return ErrCorrupt
		}
		st[lane] = ns
	}
	return nil
}

func refReadBitsAt(stream []byte, pos uint64, nb uint) uint32 {
	idx := int(pos >> 3)
	shift := uint(pos & 7)
	var w uint64
	for k := 0; idx+k < len(stream) && k < 8; k++ {
		w |= uint64(stream[idx+k]) << (8 * uint(k))
	}
	return uint32(w>>shift) & (1<<nb - 1)
}

// randomTable draws a normalized histogram of alpha symbols at tableLog —
// flat (equal counts) or skewed (a few symbols own most states, the rest
// hold one slot) — and returns it through Parse, the only door a table log
// below DefaultTableLog comes through.
func randomTable(t *testing.T, rng *rand.Rand, tableLog uint, alpha int, skewed bool, maxSym uint32) *Table {
	t.Helper()
	size := 1 << tableLog
	norm := make([]uint32, alpha)
	for i := range norm {
		norm[i] = 1
	}
	left := size - alpha
	if skewed {
		for i := 0; left > 0; i = (i + 1) % alpha {
			give := left/2 + 1
			norm[i] += uint32(give)
			left -= give
		}
		rng.Shuffle(alpha, func(a, b int) { norm[a], norm[b] = norm[b], norm[a] })
	} else {
		for i := 0; left > 0; i = (i + 1) % alpha {
			norm[i]++
			left--
		}
	}
	// alpha distinct ascending symbols in [0, maxSym].
	syms := make([]uint32, 0, alpha)
	for _, v := range rng.Perm(int(maxSym) + 1)[:alpha] {
		syms = append(syms, uint32(v))
	}
	slices.Sort(syms)
	ser := []byte{byte(tableLog)}
	ser = binary.AppendUvarint(ser, uint64(alpha))
	prev := int64(-1)
	for j, s := range syms {
		ser = binary.AppendUvarint(ser, uint64(int64(s)-prev))
		ser = binary.AppendUvarint(ser, uint64(norm[j]))
		prev = int64(s)
	}
	tab, n, err := Parse(ser)
	if err != nil || n != len(ser) {
		t.Fatalf("Parse(tableLog %d, %d symbols): consumed %d of %d, err %v", tableLog, alpha, n, len(ser), err)
	}
	return tab
}

// TestKernelMatchesOracle pins the generic kernel to the pre-PR-20 coder bit
// for bit — stream bytes, final states, bit count, decoded symbols — for
// both symbol types, with and without the dense LUT, over random tables of
// every table log the format admits.
func TestKernelMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	lengths := []int{0, 1, 777, 1 << 17}
	for tableLog := uint(MinTableLog); tableLog <= MaxTableLog; tableLog++ {
		for _, skewed := range []bool{false, true} {
			for _, byteSyms := range []bool{false, true} {
				maxAlpha, maxSym := 4096, uint32(1<<17)
				if byteSyms {
					maxAlpha, maxSym = 256, 0xff
				}
				alpha := 1 + rng.Intn(min(maxAlpha, 1<<tableLog))
				if tableLog == MinTableLog {
					alpha = 1 // the degenerate one-symbol table: zero bits per symbol
				}
				tab := randomTable(t, rng, tableLog, alpha, skewed, maxSym)
				ref := newRefTable(tableLog, slices.Clone(tab.syms), slices.Clone(tab.norm))
				// Draw symbols from the table's own distribution.
				cdf := make([]uint32, 0, 1<<tableLog)
				for j, n := range tab.norm {
					for c := uint32(0); c < n; c++ {
						cdf = append(cdf, tab.syms[j])
					}
				}
				lut := make([]uint32, tab.MaxSymbol()+1)
				tab.FillLUT(lut)
				for _, n := range lengths {
					syms := make([]uint32, n)
					for i := range syms {
						syms[i] = cdf[rng.Intn(len(cdf))]
					}
					wantStream, wantStates, wantBits := ref.encode(syms)
					check := func(what string, stream []byte, states [NumStates]uint32, bits uint64, err error) {
						t.Helper()
						if err != nil {
							t.Fatalf("tableLog %d alpha %d n %d %s: %v", tableLog, alpha, n, what, err)
						}
						if !bytes.Equal(stream, wantStream) || states != wantStates || bits != wantBits {
							t.Fatalf("tableLog %d alpha %d skewed %v n %d %s: stream/states/bits differ from the oracle (%d vs %d bytes, %v vs %v, %d vs %d bits)",
								tableLog, alpha, skewed, n, what, len(stream), len(wantStream), states, wantStates, bits, wantBits)
						}
					}
					for _, l := range [][]uint32{lut, nil} {
						what := "Encode/lut"
						if l == nil {
							what = "Encode/nil-lut"
						}
						stream, states, bits, err := tab.Encode(nil, syms, l)
						check(what, stream, states, bits, err)
					}
					// Appending to a non-empty dst must leave the prefix alone.
					stream, states, bits, err := tab.Encode([]byte("pfx"), syms, lut)
					if !bytes.HasPrefix(stream, []byte("pfx")) {
						t.Fatalf("tableLog %d n %d: Encode clobbered dst's prefix", tableLog, n)
					}
					check("Encode/append", stream[3:], states, bits, err)

					got := make([]uint32, n)
					if err := tab.Decode(wantStream, wantStates, wantBits, got); err != nil {
						t.Fatalf("tableLog %d alpha %d n %d Decode: %v", tableLog, alpha, n, err)
					}
					refOut := make([]uint32, n)
					if err := ref.decode(wantStream, wantStates, wantBits, refOut); err != nil {
						t.Fatalf("oracle decode: %v", err)
					}
					if !slices.Equal(got, syms) || !slices.Equal(refOut, syms) {
						t.Fatalf("tableLog %d alpha %d n %d: decoded symbols differ", tableLog, alpha, n)
					}
					if !byteSyms {
						continue
					}
					raw := make([]byte, n)
					for i, s := range syms {
						raw[i] = byte(s)
					}
					for _, l := range [][]uint32{lut, nil} {
						stream, states, bits, err := tab.EncodeBytes(nil, raw, l)
						check("EncodeBytes", stream, states, bits, err)
					}
					back := make([]byte, n)
					if err := tab.DecodeBytes(wantStream, wantStates, wantBits, back); err != nil {
						t.Fatalf("tableLog %d alpha %d n %d DecodeBytes: %v", tableLog, alpha, n, err)
					}
					if !bytes.Equal(back, raw) {
						t.Fatalf("tableLog %d alpha %d n %d: DecodeBytes differs", tableLog, alpha, n)
					}
				}
				tab.Release()
			}
		}
	}
}

// TestKernelErrorsMatchOracle feeds both decoders the same damaged inputs —
// short bit counts, cut streams, flipped bytes — and requires the same
// verdict: identical symbols where both succeed, the same typed error where
// either fails.
func TestKernelErrorsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for round := 0; round < 200; round++ {
		tableLog := uint(MinTableLog + rng.Intn(MaxTableLog-MinTableLog+1))
		alpha := 1 + rng.Intn(min(256, 1<<tableLog))
		tab := randomTable(t, rng, tableLog, alpha, rng.Intn(2) == 0, 0xff)
		ref := newRefTable(tableLog, slices.Clone(tab.syms), slices.Clone(tab.norm))
		n := 1 + rng.Intn(300)
		syms := make([]uint32, n)
		for i := range syms {
			syms[i] = tab.syms[rng.Intn(alpha)]
		}
		stream, states, bits := ref.encode(syms)
		switch rng.Intn(4) {
		case 0:
			if bits > 0 {
				bits = uint64(rng.Int63n(int64(bits)))
			}
		case 1:
			stream = stream[:rng.Intn(len(stream)+1)]
		case 2:
			if len(stream) > 0 {
				stream = slices.Clone(stream)
				stream[rng.Intn(len(stream))] ^= byte(1 + rng.Intn(255))
			}
		case 3:
			states[rng.Intn(NumStates)] = uint32(rng.Intn(2 << tableLog))
		}
		got, want := make([]uint32, n), make([]uint32, n)
		gotErr := tab.Decode(stream, states, bits, got)
		wantErr := ref.decode(stream, states, bits, want)
		if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && !errors.Is(gotErr, wantErr)) {
			t.Fatalf("round %d: kernel says %v, oracle says %v", round, gotErr, wantErr)
		}
		if wantErr == nil && !slices.Equal(got, want) {
			t.Fatalf("round %d: decoders disagree on a damaged stream both accept", round)
		}
		asBytes := make([]byte, n)
		byteErr := tab.DecodeBytes(stream, states, bits, asBytes)
		if (wantErr == nil) != (byteErr == nil) || (wantErr != nil && !errors.Is(byteErr, wantErr)) {
			t.Fatalf("round %d: byte kernel says %v, oracle says %v", round, byteErr, wantErr)
		}
		tab.Release()
	}
}

// TestBuildDenseMatchesBuild: the dense-histogram door, scanning every count
// or walking a touched list in any order, builds the table the map door
// builds, so a caller with dense counts writes the same serialized table.
func TestBuildDenseMatchesBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for round := 0; round < 50; round++ {
		counts := make([]int64, 1+rng.Intn(1<<uint(8+rng.Intn(5))))
		freqs := map[uint32]int64{}
		var touched []uint32
		for k := 1 + rng.Intn(256); k > 0; k-- {
			s := uint32(rng.Intn(len(counts)))
			c := int64(1 + rng.Intn(1<<uint(rng.Intn(16))))
			if counts[s] == 0 {
				touched = append(touched, s)
			}
			counts[s] += c
			freqs[s] += c
		}
		rng.Shuffle(len(touched), func(i, j int) { touched[i], touched[j] = touched[j], touched[i] })
		a, err := Build(freqs)
		if err != nil {
			t.Fatal(err)
		}
		for _, list := range [][]uint32{nil, touched} {
			b, err := BuildDense(counts, list)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a.Serialize(), b.Serialize()) {
				t.Fatalf("round %d (touched list %v): BuildDense and Build serialize differently", round, list != nil)
			}
			b.Release()
		}
		a.Release()
	}
	if _, err := BuildDense(make([]int64, 256), nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("empty histogram: got %v, want ErrCorrupt", err)
	}
	if _, err := BuildDense(make([]int64, 256), []uint32{7}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("touched zero count: got %v, want ErrCorrupt", err)
	}
}

// TestDecodeBytesRejectsWideTable: a table naming a symbol above 0xff cannot
// describe bytes; the byte decoder refuses it before reading the stream.
func TestDecodeBytesRejectsWideTable(t *testing.T) {
	tab, err := Build(map[uint32]int64{3: 10, 256: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer tab.Release()
	if err := tab.DecodeBytes(nil, [NumStates]uint32{}, 0, make([]byte, 4)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("got %v, want ErrCorrupt", err)
	}
}

// TestSteadyStateAllocations: with a warm table pool a dense build, a LUT
// encode into a reused buffer and a decode allocate nothing — in particular
// no symbol map on the LUT path.
func TestSteadyStateAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds items under the race detector")
	}
	rng := rand.New(rand.NewSource(23))
	raw := make([]byte, 1<<14)
	var counts [256]int64
	for i := range raw {
		raw[i] = byte(rng.Intn(40))
		counts[raw[i]]++
	}
	var lut [256]uint32
	dst := make([]byte, 0, 2*len(raw)+16)
	out := make([]byte, len(raw))
	allocs := testing.AllocsPerRun(20, func() {
		tab, err := BuildDense(counts[:], nil)
		if err != nil {
			t.Fatal(err)
		}
		tab.FillLUT(lut[:])
		dst = tab.AppendSerialized(dst[:0])
		k := len(dst)
		stream, states, bits, err := tab.EncodeBytes(dst, raw, lut[:])
		if err != nil {
			t.Fatal(err)
		}
		if err := tab.DecodeBytes(stream[k:], states, bits, out); err != nil {
			t.Fatal(err)
		}
		tab.Release()
	})
	if allocs > 0 {
		t.Fatalf("steady-state build+encode+decode allocates %.0f objects per table, want 0", allocs)
	}
}
