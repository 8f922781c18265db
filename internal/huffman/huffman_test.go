package huffman

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"rqm/internal/bitio"
)

func roundTrip(t *testing.T, syms []uint32) *Codebook {
	t.Helper()
	cb, err := Build(freqsOf(syms))
	if err != nil {
		t.Fatal(err)
	}
	w := bitio.NewWriter(len(syms))
	if err := cb.Encode(w, syms); err != nil {
		t.Fatal(err)
	}
	r := bitio.NewReader(w.Bytes())
	out := make([]uint32, len(syms))
	if err := cb.Decode(r, out); err != nil {
		t.Fatal(err)
	}
	for i := range syms {
		if out[i] != syms[i] {
			t.Fatalf("symbol %d = %d, want %d", i, out[i], syms[i])
		}
	}
	return cb
}

func TestRoundTripSimple(t *testing.T) {
	roundTrip(t, []uint32{1, 1, 1, 2, 2, 3, 7, 7, 7, 7, 7, 7})
}

func TestRoundTripSingleSymbol(t *testing.T) {
	cb := roundTrip(t, []uint32{42, 42, 42, 42})
	if l, ok := codeLength(cb, 42); !ok || l != 1 {
		t.Fatalf("single-symbol code length = %d ok=%v", l, ok)
	}
}

func TestRoundTripTwoSymbols(t *testing.T) {
	roundTrip(t, []uint32{0, 1, 0, 0, 0, 1})
}

func TestRoundTripSkewed(t *testing.T) {
	// Zipf-ish: zero dominates, like SZ quantization codes.
	var syms []uint32
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		r := rng.Float64()
		switch {
		case r < 0.85:
			syms = append(syms, 32768)
		case r < 0.95:
			syms = append(syms, 32769)
		case r < 0.99:
			syms = append(syms, 32767)
		default:
			syms = append(syms, uint32(32700+rng.Intn(140)))
		}
	}
	cb := roundTrip(t, syms)
	// The dominant symbol must get the shortest code.
	lDom, _ := codeLength(cb, 32768)
	lRare, ok := codeLength(cb, 32701)
	if ok && lRare < lDom {
		t.Fatalf("rare symbol shorter than dominant: %d < %d", lRare, lDom)
	}
}

func TestBuildEmptyRejected(t *testing.T) {
	if _, err := Build(map[uint32]int64{}); err == nil {
		t.Fatal("empty frequency map accepted")
	}
	if _, err := Build(map[uint32]int64{5: 0}); err == nil {
		t.Fatal("all-zero frequency map accepted")
	}
}

func TestEncodeUnknownSymbol(t *testing.T) {
	cb, _ := Build(map[uint32]int64{1: 5, 2: 5})
	w := bitio.NewWriter(0)
	if err := cb.Encode(w, []uint32{3}); err == nil {
		t.Fatal("unknown symbol encoded")
	}
}

// codeLength is the code length of sym in cb, or ok=false if absent.
func codeLength(cb *Codebook, sym uint32) (uint8, bool) {
	i, ok := cb.positions()[sym]
	if !ok {
		return 0, false
	}
	return cb.lengths[i], true
}

// meanBits is the average code length of cb under freqs, every symbol in
// freqs coded.
func meanBits(cb *Codebook, freqs map[uint32]int64) float64 {
	var bits, total int64
	for s, f := range freqs {
		l, _ := codeLength(cb, s)
		bits += int64(l) * f
		total += f
	}
	return float64(bits) / float64(total)
}

func TestMeanBitsNearEntropy(t *testing.T) {
	freqs := map[uint32]int64{0: 900, 1: 50, 2: 50}
	cb, err := Build(freqs)
	if err != nil {
		t.Fatal(err)
	}
	mb := meanBits(cb, freqs)
	// Entropy = -(0.9 log 0.9 + 2*0.05 log 0.05) ≈ 0.569; Huffman is within
	// 1 bit of entropy and at least 1 bit per symbol here.
	if mb < 0.569 || mb > 1.569 {
		t.Fatalf("mean bits = %v", mb)
	}
}

func TestCodebookSerializeParse(t *testing.T) {
	syms := []uint32{5, 5, 5, 1000, 1000, 70000, 3, 3, 3, 3}
	cb, err := Build(freqsOf(syms))
	if err != nil {
		t.Fatal(err)
	}
	blob := cb.Serialize()
	cb2, n, err := Parse(blob)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(blob) {
		t.Fatalf("Parse consumed %d of %d bytes", n, len(blob))
	}
	// Encoding with cb and decoding with cb2 must agree.
	w := bitio.NewWriter(0)
	if err := cb.Encode(w, syms); err != nil {
		t.Fatal(err)
	}
	out := make([]uint32, len(syms))
	if err := cb2.Decode(bitio.NewReader(w.Bytes()), out); err != nil {
		t.Fatal(err)
	}
	for i := range syms {
		if out[i] != syms[i] {
			t.Fatalf("parsed codebook decode mismatch at %d", i)
		}
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	if _, _, err := Parse(nil); err == nil {
		t.Fatal("nil accepted")
	}
	if _, _, err := Parse([]byte{200}); err == nil {
		t.Fatal("truncated varint accepted")
	}
	if _, _, err := Parse([]byte{2, 1}); err == nil {
		t.Fatal("truncated entries accepted")
	}
}

func TestDecodeTruncatedStream(t *testing.T) {
	syms := []uint32{1, 2, 3, 1, 2, 3, 1, 1, 1}
	cb, _ := Build(freqsOf(syms))
	w := bitio.NewWriter(0)
	if err := cb.Encode(w, syms); err != nil {
		t.Fatal(err)
	}
	bytes := w.Bytes()
	out := make([]uint32, len(syms)+64) // demand more symbols than encoded
	if err := cb.Decode(bitio.NewReader(bytes), out); err == nil {
		t.Fatal("decoding past end succeeded")
	}
}

func TestLengthLimitedDegenerate(t *testing.T) {
	// Fibonacci-like frequencies force deep trees; lengths must be clamped.
	freqs := map[uint32]int64{}
	a, b := int64(1), int64(1)
	for i := uint32(0); i < 60; i++ {
		freqs[i] = a
		a, b = b, a+b
		if a > 1<<40 {
			break
		}
	}
	cb, err := Build(freqs)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range cb.symbols {
		l, _ := codeLength(cb, s)
		if l > MaxCodeLen {
			t.Fatalf("symbol %d has length %d > %d", s, l, MaxCodeLen)
		}
	}
	// And the codebook must still round-trip data.
	var syms []uint32
	for s := range freqs {
		syms = append(syms, s, s)
	}
	w := bitio.NewWriter(0)
	if err := cb.Encode(w, syms); err != nil {
		t.Fatal(err)
	}
	out := make([]uint32, len(syms))
	if err := cb.Decode(bitio.NewReader(w.Bytes()), out); err != nil {
		t.Fatal(err)
	}
}

// Property: arbitrary random symbol streams round-trip.
func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64, lnRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(lnRaw)%500 + 1
		alpha := rng.Intn(30) + 1
		syms := make([]uint32, n)
		for i := range syms {
			// Geometric-ish distribution over a small alphabet.
			v := uint32(0)
			for v < uint32(alpha-1) && rng.Float64() < 0.5 {
				v++
			}
			syms[i] = v * 7
		}
		cb, err := Build(freqsOf(syms))
		if err != nil {
			return false
		}
		w := bitio.NewWriter(0)
		if err := cb.Encode(w, syms); err != nil {
			return false
		}
		out := make([]uint32, n)
		if err := cb.Decode(bitio.NewReader(w.Bytes()), out); err != nil {
			return false
		}
		for i := range syms {
			if out[i] != syms[i] {
				return false
			}
		}
		// Serialized codebook must reconstruct and agree.
		cb2, _, err := Parse(cb.Serialize())
		if err != nil {
			return false
		}
		out2 := make([]uint32, n)
		if err := cb2.Decode(bitio.NewReader(w.Bytes()), out2); err != nil {
			return false
		}
		for i := range syms {
			if out2[i] != syms[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: mean code length is within 1 bit of the source entropy
// (Huffman optimality bound), provided entropy >= 1 bit.
func TestQuickNearEntropyBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		freqs := map[uint32]int64{}
		n := rng.Intn(40) + 2
		var total int64
		for i := 0; i < n; i++ {
			c := int64(rng.Intn(1000) + 1)
			freqs[uint32(i)] = c
			total += c
		}
		cb, err := Build(freqs)
		if err != nil {
			return false
		}
		var entropy float64
		for _, c := range freqs {
			p := float64(c) / float64(total)
			entropy -= p * math.Log2(p)
		}
		mb := meanBits(cb, freqs)
		return mb >= entropy-1e-9 && mb <= entropy+1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncodeDecode(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	syms := make([]uint32, 1<<16)
	for i := range syms {
		if rng.Float64() < 0.8 {
			syms[i] = 100
		} else {
			syms[i] = uint32(90 + rng.Intn(20))
		}
	}
	cb, err := Build(freqsOf(syms))
	if err != nil {
		b.Fatal(err)
	}
	out := make([]uint32, len(syms))
	b.SetBytes(int64(len(syms) * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := bitio.NewWriter(len(syms) / 2)
		if err := cb.Encode(w, syms); err != nil {
			b.Fatal(err)
		}
		if err := cb.Decode(bitio.NewReader(w.Bytes()), out); err != nil {
			b.Fatal(err)
		}
	}
}

// freqsOf tallies symbol frequencies of a slice.
func freqsOf(syms []uint32) map[uint32]int64 {
	m := make(map[uint32]int64)
	for _, s := range syms {
		m[s]++
	}
	return m
}

// ---------------------------------------------------------------------------
// The oracle: the builder and the per-symbol decoder this package shipped
// before the register-window kernel and the dense pooled codebook, kept
// verbatim (map histogram, comparison sorts, PeekBits/Skip per symbol and the
// ReadBits(1) canonical walk, over the byte-refilled bit reader they ran on).
// kernel_test.go requires the live code to agree with it symbol for symbol,
// byte for byte and verdict for verdict.
// ---------------------------------------------------------------------------

// refReader is the accumulator bit reader the oracle decoder was written
// against (bitio.Reader before it became a Window).
type refReader struct {
	buf  []byte
	pos  int
	cur  uint64
	n    uint
	read uint64
}

func (r *refReader) fill(need uint) bool {
	for r.n < need {
		if r.pos >= len(r.buf) {
			return false
		}
		r.cur = r.cur<<8 | uint64(r.buf[r.pos])
		r.pos++
		r.n += 8
	}
	return true
}

func (r *refReader) ReadBits(width uint) (uint64, error) {
	if width == 0 {
		return 0, nil
	}
	if !r.fill(width) {
		return 0, bitio.ErrUnexpectedEOF
	}
	r.n -= width
	v := r.cur >> r.n & ((1 << width) - 1)
	r.read += uint64(width)
	return v, nil
}

func (r *refReader) PeekBits(width uint) (v uint64, avail uint) {
	r.fill(width) // best effort
	if r.n >= width {
		return r.cur >> (r.n - width) & ((1 << width) - 1), width
	}
	if r.n == 0 {
		return 0, 0
	}
	return r.cur << (width - r.n) & ((1 << width) - 1), r.n
}

func (r *refReader) Skip(width uint) {
	if !r.fill(width) {
		r.read += uint64(r.n)
		r.n = 0
		return
	}
	r.n -= width
	r.read += uint64(width)
}

type refCodebook struct {
	symbols    []uint32
	lengths    []uint8
	codes      []uint32
	index      map[uint32]int
	firstCode  [MaxCodeLen + 2]uint32
	firstIndex [MaxCodeLen + 2]int
	countLen   [MaxCodeLen + 2]int
	maxLen     uint8
	dtab       []uint32
	tabBits    uint
}

func refBuild(freqs map[uint32]int64) (*refCodebook, error) {
	type sf struct {
		sym  uint32
		freq int64
	}
	items := make([]sf, 0, len(freqs))
	for s, f := range freqs {
		if f > 0 {
			items = append(items, sf{s, f})
		}
	}
	if len(items) == 0 {
		return nil, errors.New("huffman: no symbols with positive frequency")
	}
	slices.SortFunc(items, func(a, b sf) int {
		if a.sym < b.sym {
			return -1
		}
		return 1
	})
	if len(items) == 1 {
		return refFromLengths([]uint32{items[0].sym}, []uint8{1})
	}
	work := make([]int64, len(items))
	for i, it := range items {
		work[i] = it.freq
	}
	for {
		lengths := refTreeLengths(work)
		maxL := uint8(0)
		for _, l := range lengths {
			if l > maxL {
				maxL = l
			}
		}
		if maxL <= MaxCodeLen {
			syms := make([]uint32, len(items))
			for i, it := range items {
				syms[i] = it.sym
			}
			return refFromLengths(syms, lengths)
		}
		for i := range work {
			work[i] = (work[i] + 1) / 2
		}
	}
}

type hNode struct {
	freq        int64
	sym         uint32
	left, right int32
}

func refTreeLengths(freqs []int64) []uint8 {
	n := len(freqs)
	nodes := make([]hNode, n, 2*n-1)
	for i, f := range freqs {
		nodes[i] = hNode{freq: f, sym: uint32(i), left: -1, right: -1}
	}
	h := make([]int32, n, 2*n-1)
	for i := range h {
		h[i] = int32(i)
	}
	less := func(a, b int32) bool {
		if nodes[a].freq != nodes[b].freq {
			return nodes[a].freq < nodes[b].freq
		}
		return nodes[a].sym < nodes[b].sym
	}
	down := func(i0 int) {
		i := i0
		for {
			j1 := 2*i + 1
			if j1 >= len(h) {
				break
			}
			j := j1
			if j2 := j1 + 1; j2 < len(h) && less(h[j2], h[j1]) {
				j = j2
			}
			if !less(h[j], h[i]) {
				break
			}
			h[i], h[j] = h[j], h[i]
			i = j
		}
	}
	up := func(j int) {
		for j > 0 {
			i := (j - 1) / 2
			if !less(h[j], h[i]) {
				break
			}
			h[i], h[j] = h[j], h[i]
			j = i
		}
	}
	pop := func() int32 {
		last := len(h) - 1
		h[0], h[last] = h[last], h[0]
		x := h[last]
		h = h[:last]
		down(0)
		return x
	}
	for i := n/2 - 1; i >= 0; i-- {
		down(i)
	}
	for len(h) > 1 {
		a := pop()
		b := pop()
		nodes = append(nodes, hNode{freq: nodes[a].freq + nodes[b].freq, sym: nodes[a].sym, left: a, right: b})
		h = append(h, int32(len(nodes)-1))
		up(len(h) - 1)
	}
	root := h[0]
	lengths := make([]uint8, n)
	stack := make([]int64, 0, 64)
	stack = append(stack, int64(root)<<8)
	for len(stack) > 0 {
		e := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nd, depth := &nodes[e>>8], uint8(e&0xff)
		if nd.left < 0 {
			if depth == 0 {
				depth = 1
			}
			lengths[nd.sym] = depth
			continue
		}
		stack = append(stack, int64(nd.left)<<8|int64(depth+1), int64(nd.right)<<8|int64(depth+1))
	}
	return lengths
}

func refFromLengths(syms []uint32, lengths []uint8) (*refCodebook, error) {
	n := len(syms)
	ord := make([]int, n)
	for i := range ord {
		ord[i] = i
	}
	slices.SortFunc(ord, func(ia, ib int) int {
		if lengths[ia] != lengths[ib] {
			return int(lengths[ia]) - int(lengths[ib])
		}
		if syms[ia] < syms[ib] {
			return -1
		}
		return 1
	})
	cb := &refCodebook{
		symbols: make([]uint32, n),
		lengths: make([]uint8, n),
		codes:   make([]uint32, n),
		index:   make(map[uint32]int, n),
	}
	for i, o := range ord {
		cb.symbols[i] = syms[o]
		cb.lengths[i] = lengths[o]
	}
	var code uint32
	var prevLen uint8
	for i := 0; i < n; i++ {
		l := cb.lengths[i]
		if l == 0 || l > MaxCodeLen {
			return nil, fmt.Errorf("huffman: invalid code length %d", l)
		}
		if i == 0 {
			code = 0
		} else {
			code = (code + 1) << (l - prevLen)
		}
		cb.codes[i] = code
		prevLen = l
		if _, dup := cb.index[cb.symbols[i]]; dup {
			return nil, fmt.Errorf("huffman: duplicate symbol %d", cb.symbols[i])
		}
		cb.index[cb.symbols[i]] = i
		if l < 32 && code >= 1<<l {
			return nil, errors.New("huffman: code lengths violate Kraft inequality")
		}
	}
	cb.maxLen = cb.lengths[n-1]
	for l := uint8(1); l <= cb.maxLen; l++ {
		cb.firstIndex[l] = -1
	}
	for i := 0; i < n; i++ {
		l := cb.lengths[i]
		if cb.firstIndex[l] == -1 {
			cb.firstIndex[l] = i
			cb.firstCode[l] = cb.codes[i]
		}
		cb.countLen[l]++
	}
	tb := uint(cb.maxLen)
	if tb > decodeTableBits {
		tb = decodeTableBits
	}
	cb.tabBits = tb
	cb.dtab = make([]uint32, 1<<tb)
	for i, l := range cb.lengths {
		if uint(l) > tb {
			break
		}
		span := uint(1) << (tb - uint(l))
		base := cb.codes[i] << (tb - uint(l))
		e := uint32(l)<<16 | uint32(i)
		for j := uint(0); j < span; j++ {
			cb.dtab[base+uint32(j)] = e
		}
	}
	return cb, nil
}

func (cb *refCodebook) Serialize() []byte {
	n := len(cb.symbols)
	type entry struct {
		sym uint32
		l   uint8
	}
	entries := make([]entry, n)
	for i := range cb.symbols {
		entries[i] = entry{cb.symbols[i], cb.lengths[i]}
	}
	slices.SortFunc(entries, func(a, b entry) int {
		if a.sym < b.sym {
			return -1
		}
		return 1
	})
	buf := make([]byte, 0, n*2+10)
	var tmp [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(tmp[:], uint64(n))
	buf = append(buf, tmp[:k]...)
	prev := int64(-1)
	for _, e := range entries {
		delta := int64(e.sym) - prev
		k := binary.PutUvarint(tmp[:], uint64(delta))
		buf = append(buf, tmp[:k]...)
		buf = append(buf, e.l)
		prev = int64(e.sym)
	}
	return buf
}

// refParse is the parser the oracle shipped with, minus the two allocations
// of the declared size it made before reading an entry (the bug this
// package's Parse no longer has): entries are appended as they are read.
func refParse(data []byte) (*refCodebook, int, error) {
	n64, k := binary.Uvarint(data)
	if k <= 0 {
		return nil, 0, errors.New("huffman: bad codebook count")
	}
	if n64 == 0 || n64 > 1<<28 {
		return nil, 0, fmt.Errorf("huffman: unreasonable codebook size %d", n64)
	}
	pos := k
	var syms []uint32
	var lengths []uint8
	prev := int64(-1)
	for i := 0; i < int(n64); i++ {
		d, k := binary.Uvarint(data[pos:])
		if k <= 0 {
			return nil, 0, errors.New("huffman: truncated codebook symbol")
		}
		pos += k
		if pos >= len(data) {
			return nil, 0, errors.New("huffman: truncated codebook length")
		}
		sym := prev + int64(d)
		if sym < 0 || sym > int64(^uint32(0)) {
			return nil, 0, errors.New("huffman: symbol out of range")
		}
		syms = append(syms, uint32(sym))
		lengths = append(lengths, data[pos])
		pos++
		prev = sym
	}
	cb, err := refFromLengths(syms, lengths)
	if err != nil {
		return nil, 0, err
	}
	return cb, pos, nil
}

func (cb *refCodebook) Encode(w *bitio.Writer, syms []uint32) error {
	for _, s := range syms {
		i, ok := cb.index[s]
		if !ok {
			return fmt.Errorf("huffman: symbol %d not in codebook", s)
		}
		w.WriteBits(uint64(cb.codes[i]), uint(cb.lengths[i]))
	}
	return nil
}

func (cb *refCodebook) refDecode(r *refReader, out []uint32) error {
	tb := cb.tabBits
	for i := range out {
		if v, avail := r.PeekBits(tb); avail > 0 {
			if e := cb.dtab[v]; e != 0 {
				if l := uint(e >> 16); l <= avail {
					r.Skip(l)
					out[i] = cb.symbols[e&0xffff]
					continue
				}
			}
		}
		var code uint32
		var l uint8
		for {
			b, err := r.ReadBits(1)
			if err != nil {
				return fmt.Errorf("huffman: truncated stream at symbol %d: %w", i, err)
			}
			code = code<<1 | uint32(b)
			l++
			if l > cb.maxLen {
				return fmt.Errorf("huffman: invalid code at symbol %d", i)
			}
			if cb.countLen[l] == 0 {
				continue
			}
			offset := int64(code) - int64(cb.firstCode[l])
			if offset >= 0 && offset < int64(cb.countLen[l]) {
				out[i] = cb.symbols[cb.firstIndex[l]+int(offset)]
				break
			}
		}
	}
	return nil
}
