package ans

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sync"
)

const (
	// DefaultTableLog is the table size exponent used when the alphabet
	// fits: 2^12 states balances ratio (quantization noise of the
	// normalized counts) against table build cost per chunk.
	DefaultTableLog = 12
	// MaxTableLog bounds the table size a Table will build or Parse will
	// accept: 2^16 states × ~10 bytes/entry keeps a pooled table under
	// 1 MiB, a next-state base within 16 bits and every bit group within
	// one 32-bit flush.
	MaxTableLog = 16
	// MinTableLog keeps the state update sane for tiny alphabets.
	MinTableLog = 5
	// NumStates is the number of interleaved encoder/decoder states: even
	// symbol indices ride state 0, odd ride state 1, giving the decode loop
	// two independent dependency chains.
	NumStates = 2
)

// Typed errors; match with errors.Is.
var (
	// ErrAlphabetTooLarge marks a symbol set with more distinct symbols
	// than the largest permitted table; callers fall back to Huffman.
	ErrAlphabetTooLarge = errors.New("ans: alphabet larger than table")
	// ErrCorrupt marks a structurally invalid serialized table or stream.
	ErrCorrupt = errors.New("ans: corrupt table or stream")
	// ErrTruncated marks a bitstream that ran out before all symbols were
	// decoded.
	ErrTruncated = errors.New("ans: truncated stream")
)

// Table is a built tANS coding table: the normalized histogram plus the
// derived decode entries and per-symbol encode transforms. Encode and decode
// tables are always built together (they are cheap relative to a chunk) so
// one Table serves both directions.
type Table struct {
	tableLog uint
	size     uint32 // 1 << tableLog
	// Canonical (symbol-ascending) normalized histogram, counts sum to size.
	syms []uint32
	norm []uint32
	// dec[p], p in [0,size): symbol<<32 | refill bit count<<16 | next-state
	// base — one load per decoded symbol.
	dec []uint64
	// enc[j] is canonical symbol j's encode transform; next holds the
	// table positions it selects (see symTransform).
	enc  []symTransform
	next []uint32
	// index maps symbol → canonical position. Only an Encode without a LUT
	// consults it, and builds it on first use.
	index map[uint32]uint32
	// freq, ord and cursor are build scratch kept with the pooled shell.
	freq   []int64
	ord    []int32
	cursor []uint32
	// maxSym is the largest symbol value (dense-LUT sizing bound).
	maxSym uint32
}

// symTransform is the encode step of one symbol with normalized count n,
// precomputed so the coding loop has no data-dependent loop or branch. From
// state x in [size, 2·size) the step emits the low nb bits of x and moves to
// table position next[x>>nb + deltaPos] (uint32 wrap-around), where
//
//	nb = (x + deltaNb) >> 16,  deltaNb = k<<16 − n<<k,  k = tableLog + 1 − bitlen(n−1).
//
// n<<k lies in (size, 2·size], so the sum's high half is k when x ≥ n<<k and
// k−1 below it: exactly the smallest nb with x>>nb < 2n, the one bit count
// that lands x>>nb in the symbol's sub-state range [n, 2n). deltaPos is the
// symbol's segment base in next minus n.
type symTransform struct {
	deltaNb  uint32
	deltaPos uint32
}

// tablePool recycles Table shells and their slices: chunk-rate encode and
// decode must not allocate a fresh multi-KB table set per chunk (the PR 4
// arena discipline, extended to the ANS stage).
var tablePool = sync.Pool{New: func() interface{} { return &Table{} }}

// shell takes an empty Table from the pool for a build or parse to fill.
func shell() *Table {
	t := tablePool.Get().(*Table)
	t.syms, t.norm, t.freq = t.syms[:0], t.norm[:0], t.freq[:0]
	return t
}

// Release returns the table to the pool. The caller must not use it after.
func (t *Table) Release() {
	t.syms = t.syms[:0]
	t.norm = t.norm[:0]
	t.index = nil
	t.maxSym = 0
	tablePool.Put(t)
}

// MaxSymbol returns the largest symbol value in the table.
func (t *Table) MaxSymbol() uint32 { return t.maxSym }

// Build constructs a tANS table from symbol frequencies, choosing the
// smallest adequate table log in [DefaultTableLog, MaxTableLog]. Zero-count
// symbols are ignored; at least one positive count is required. Returns
// ErrAlphabetTooLarge when the distinct symbols cannot each hold one state
// slot at MaxTableLog.
func Build(freqs map[uint32]int64) (*Table, error) {
	t := shell()
	for s, f := range freqs {
		if f > 0 {
			t.syms = append(t.syms, s)
		}
	}
	slices.Sort(t.syms)
	for _, s := range t.syms {
		t.freq = append(t.freq, freqs[s])
	}
	return t.build()
}

// BuildDense is Build over a dense histogram: counts[s] is symbol s's
// frequency and touched lists, in any order and each once, the symbols whose
// count may be positive (nil: every index of counts). The table is the one
// Build returns for the same frequencies; once the pool is warm it allocates
// nothing.
func BuildDense(counts []int64, touched []uint32) (*Table, error) {
	t := shell()
	if touched == nil {
		for s, f := range counts {
			if f > 0 {
				t.syms = append(t.syms, uint32(s))
				t.freq = append(t.freq, f)
			}
		}
		return t.build()
	}
	for _, s := range touched {
		if counts[s] > 0 {
			t.syms = append(t.syms, s)
		}
	}
	slices.Sort(t.syms)
	for _, s := range t.syms {
		t.freq = append(t.freq, counts[s])
	}
	return t.build()
}

// build normalizes t.freq (parallel to the ascending t.syms) and assembles
// the coding tables. On error the shell goes back to the pool.
func (t *Table) build() (*Table, error) {
	fail := func(err error) (*Table, error) {
		t.Release()
		return nil, err
	}
	n := len(t.syms)
	if n == 0 {
		return fail(fmt.Errorf("%w: no symbols with positive frequency", ErrCorrupt))
	}
	tableLog := uint(DefaultTableLog)
	for 1<<tableLog < n && tableLog < MaxTableLog {
		tableLog++
	}
	if n > 1<<tableLog {
		return fail(fmt.Errorf("%w: %d distinct symbols, max %d", ErrAlphabetTooLarge, n, 1<<MaxTableLog))
	}

	// Normalize counts to sum exactly 2^tableLog with every count >= 1.
	// Largest-remainder style: floor-scale with a minimum of 1, then settle
	// the drift against the most frequent symbols (deterministically).
	size := int64(1) << tableLog
	var total int64
	for _, f := range t.freq {
		total += f
	}
	t.norm = slices.Grow(t.norm[:0], n)[:n]
	norm := t.norm
	var used int64
	for i, f := range t.freq {
		c := f * size / total
		if c == 0 {
			c = 1
		}
		norm[i] = uint32(c)
		used += c
	}
	// ord: positions sorted by (freq desc, sym asc) — adjustment order.
	// Positions already ascend by symbol, so position order breaks ties.
	t.ord = slices.Grow(t.ord[:0], n)[:n]
	ord, freq := t.ord, t.freq
	for i := range ord {
		ord[i] = int32(i)
	}
	slices.SortFunc(ord, func(a, b int32) int {
		if freq[a] != freq[b] {
			if freq[a] > freq[b] {
				return -1
			}
			return 1
		}
		return int(a - b)
	})
	for used < size {
		for _, i := range ord {
			if used == size {
				break
			}
			norm[i]++
			used++
		}
	}
	for used > size {
		shrunk := false
		for _, i := range ord {
			if used == size {
				break
			}
			if norm[i] > 1 {
				norm[i]--
				used--
				shrunk = true
			}
		}
		if used > size && !shrunk {
			return fail(fmt.Errorf("%w: cannot normalize %d symbols into %d states", ErrAlphabetTooLarge, n, size))
		}
	}
	if err := t.assemble(tableLog); err != nil {
		return fail(err)
	}
	return t, nil
}

// assemble builds the spread, the decode entries and the encode transforms
// from the normalized histogram in t.syms / t.norm (counts sum to
// 1<<tableLog, each >= 1, symbols ascending).
func (t *Table) assemble(tableLog uint) error {
	t.tableLog = tableLog
	t.size = 1 << tableLog
	size := int(t.size)
	syms, norm := t.syms, t.norm
	t.maxSym = syms[len(syms)-1]

	if cap(t.dec) < size {
		t.dec = make([]uint64, size)
		t.next = make([]uint32, size)
	}
	t.dec = t.dec[:size]
	t.next = t.next[:size]
	if cap(t.enc) < len(syms) {
		t.enc = make([]symTransform, len(syms))
		t.cursor = make([]uint32, len(syms))
	}
	t.enc = t.enc[:len(syms)]

	// Spread symbols across the state table with the standard coprime step;
	// precise placement only needs to match between assemble calls (the
	// serialized form carries the histogram, not the spread).
	step := t.size>>1 + t.size>>3 + 3
	mask := t.size - 1
	pos := uint32(0)
	for j := range syms {
		for c := uint32(0); c < norm[j]; c++ {
			t.dec[pos] = uint64(j) // canonical index; completed below
			pos = (pos + step) & mask
		}
	}
	if pos != 0 {
		return fmt.Errorf("%w: spread did not close", ErrCorrupt)
	}

	// Per-symbol encode transforms; cursor[j] walks the symbol's sub-states.
	cursor := t.cursor[:len(syms)]
	var base uint32
	for j, n := range norm {
		k := uint32(tableLog) + 1 - uint32(bits.Len32(n-1))
		t.enc[j] = symTransform{deltaNb: k<<16 - n<<k, deltaPos: base - n}
		cursor[j] = n
		base += n
	}

	// Decode entries + encode positions in one pass over the table. The
	// k-th state slot of symbol j (sub-state x = norm[j]+k) is table
	// position p: decoding from p emits j and refills to x<<nb | read;
	// encoding j from sub-state x jumps to p.
	for p := 0; p < size; p++ {
		j := uint32(t.dec[p])
		x := cursor[j]
		cursor[j]++
		nb := uint32(tableLog) - uint32(bits.Len32(x)) + 1 // bits to refill x back into [size, 2·size)
		t.dec[p] = uint64(syms[j])<<32 | uint64(nb)<<16 | uint64(x<<nb-t.size)
		t.next[x+t.enc[j].deltaPos] = t.size + uint32(p)
	}
	return nil
}

// Encode compresses syms with NumStates interleaved states into a backward
// bitstream. Returns the stream bytes, the final states (one per lane), and
// the total bit count. Symbols must all be present in the table. The
// returned buffer is appended to dst (pass nil to allocate). lut, when
// non-nil, is a dense symbol → canonical index map filled by FillLUT; a nil
// lut goes through a symbol index the table builds on first use, so
// concurrent nil-lut Encodes on one Table need external locking.
func (t *Table) Encode(dst []byte, syms []uint32, lut []uint32) ([]byte, [NumStates]uint32, uint64, error) {
	return encode(t, dst, syms, lut)
}

// EncodeBytes is Encode over byte symbols: the same kernel, stream, states
// and bit count as Encode on the widened symbols, without the widening.
func (t *Table) EncodeBytes(dst, syms []byte, lut []uint32) ([]byte, [NumStates]uint32, uint64, error) {
	return encode(t, dst, syms, lut)
}

// indexOf resolves a symbol the dense LUT did not cover through the symbol
// index, built on first use; lutAbsent when the table does not hold it.
func (t *Table) indexOf(s uint32) uint32 {
	if t.index == nil {
		t.index = make(map[uint32]uint32, len(t.syms))
		for j, sym := range t.syms {
			t.index[sym] = uint32(j)
		}
	}
	if j, ok := t.index[s]; ok {
		return j
	}
	return lutAbsent
}

// canonical resolves symbol s to its canonical index: the dense LUT when it
// covers s, the table's own index otherwise; lutAbsent when s is not coded.
func canonical[S byte | uint32](t *Table, s S, lut []uint32) uint32 {
	if uint64(s) < uint64(len(lut)) {
		if j := lut[s]; j != lutAbsent {
			return j
		}
	}
	return t.indexOf(uint32(s))
}

// push runs one encode step from state x: the bit group the step emits, its
// width, and the next state.
func (tt symTransform) push(x uint32, next []uint32) (group uint64, nb uint, nx uint32) {
	nb = uint((x + tt.deltaNb) >> 16)
	return uint64(x) & (1<<(nb&31) - 1), nb, next[x>>(nb&31)+tt.deltaPos]
}

// encode is the one tANS encode loop, instantiated for byte and uint32
// symbols. Bit groups are packed LSB-first into a 64-bit accumulator that
// leaves 32 bits at a time into a buffer presized for the worst case
// (tableLog bits per symbol), so the loop never grows a slice.
func encode[S byte | uint32](t *Table, dst []byte, syms []S, lut []uint32) ([]byte, [NumStates]uint32, uint64, error) {
	start := len(dst)
	dst = slices.Grow(dst, (len(syms)*int(t.tableLog)+7)/8)
	buf := dst[:cap(dst)]
	pos := start
	var acc uint64
	var accN uint
	enc, next := t.enc, t.next
	x0, x1 := t.size, t.size // normalized state range is [size, 2·size)
	// Encoding walks the symbols backward so the decoder (which pops
	// last-pushed first) emits them forward; even indices ride lane 0 and
	// odd ones lane 1, as in the decoder's forward walk. An odd count
	// leaves the last symbol alone on lane 0; the rest go in pairs.
	i := len(syms)
	if i%NumStates != 0 {
		i--
		j := canonical(t, syms[i], lut)
		if j == lutAbsent {
			return nil, [NumStates]uint32{}, 0, errAbsent(uint32(syms[i]))
		}
		acc, accN, x0 = enc[j].push(x0, next)
	}
	for i > 0 {
		i -= NumStates
		j1, j0 := canonical(t, syms[i+1], lut), canonical(t, syms[i], lut)
		if j1 == lutAbsent {
			return nil, [NumStates]uint32{}, 0, errAbsent(uint32(syms[i+1]))
		}
		if j0 == lutAbsent {
			return nil, [NumStates]uint32{}, 0, errAbsent(uint32(syms[i]))
		}
		var group uint64
		var nb uint
		group, nb, x1 = enc[j1].push(x1, next)
		acc |= group << accN
		accN += nb
		group, nb, x0 = enc[j0].push(x0, next)
		acc |= group << accN
		accN += nb
		// Two groups of at most 16 bits on top of fewer than 32 pending.
		if accN >= 32 {
			binary.LittleEndian.PutUint32(buf[pos:], uint32(acc))
			pos += 4
			acc >>= 32
			accN -= 32
		}
	}
	totalBits := uint64(pos-start)*8 + uint64(accN)
	for ; accN > 0; accN -= min(accN, 8) {
		buf[pos] = byte(acc)
		pos++
		acc >>= 8
	}
	return buf[:pos], [NumStates]uint32{x0 - t.size, x1 - t.size}, totalBits, nil // states normalized to [0, size)
}

func errAbsent(s uint32) error {
	return fmt.Errorf("%w: symbol %d not in table", ErrCorrupt, s)
}

// lutAbsent marks an empty encode-LUT slot (no symbol maps to it).
const lutAbsent = ^uint32(0)

// FillLUT writes each table symbol's canonical index into lut[sym] and
// lutAbsent elsewhere; len(lut) must exceed MaxSymbol(). Unlike the Huffman
// LUT the absent marker is required, because Encode validates membership
// through it.
func (t *Table) FillLUT(lut []uint32) {
	for i := range lut {
		lut[i] = lutAbsent
	}
	for j, s := range t.syms {
		lut[s] = uint32(j)
	}
}

// Decode reconstructs len(out) symbols from a backward bitstream produced by
// Encode with the given final states and bit count. It never reads outside
// stream and returns typed errors on truncation or corruption.
func (t *Table) Decode(stream []byte, states [NumStates]uint32, totalBits uint64, out []uint32) error {
	return decode(t, stream, states, totalBits, out)
}

// DecodeBytes is Decode into byte symbols. A table naming a symbol above
// 0xff cannot have coded bytes and is rejected before the stream is read.
func (t *Table) DecodeBytes(stream []byte, states [NumStates]uint32, totalBits uint64, out []byte) error {
	if t.maxSym > 0xff {
		return fmt.Errorf("%w: table symbol %d outside byte range", ErrCorrupt, t.maxSym)
	}
	return decode(t, stream, states, totalBits, out)
}

// decode is the one tANS decode loop, instantiated for byte and uint32
// symbols. The unread bits sit left-aligned in a 64-bit window (the stream
// is consumed from its end), reloaded with one unaligned load when a pair of
// symbols needs more bits than the window holds.
func decode[S byte | uint32](t *Table, stream []byte, states [NumStates]uint32, totalBits uint64, out []S) error {
	if totalBits > uint64(len(stream))*8 {
		return fmt.Errorf("%w: %d bits declared, %d bytes present", ErrTruncated, totalBits, len(stream))
	}
	for _, s := range states {
		if s >= t.size {
			return fmt.Errorf("%w: state %d outside table of %d", ErrCorrupt, s, t.size)
		}
	}
	dec := t.dec
	x0, x1 := states[0], states[1]
	// win holds the next avail unread bits, the most recently written at
	// the top; the stream keeps unread−avail more beneath it.
	var win uint64
	var avail uint
	unread := totalBits
	i := 0
	for ; i+NumStates <= len(out); i += NumStates {
		e0, e1 := dec[x0], dec[x1]
		nb0, nb1 := uint(e0>>16)&0xff, uint(e1>>16)&0xff
		if nb0+nb1 > avail {
			if win, avail = window(stream, unread); nb0+nb1 > avail {
				break // the stream is short: the tail below says where
			}
		}
		// (win>>1)>>(63-nb) is win>>(64-nb) with a shift count that stays
		// below 64 when nb is 0.
		x0 = uint32(e0&0xffff) + uint32(win>>1>>((63-nb0)&63))
		win <<= nb0 & 63
		x1 = uint32(e1&0xffff) + uint32(win>>1>>((63-nb1)&63))
		win <<= nb1 & 63
		out[i], out[i+1] = S(e0>>32), S(e1>>32)
		avail -= nb0 + nb1
		unread -= uint64(nb0 + nb1)
	}
	// The tail: an odd count's last symbol, or the pair the stream ran out
	// under, one symbol at a time.
	x := [NumStates]uint32{x0, x1}
	for ; i < len(out); i++ {
		e := dec[x[i%NumStates]]
		nb := uint(e>>16) & 0xff
		if win, avail = window(stream, unread); nb > avail {
			return fmt.Errorf("%w: at symbol %d", ErrTruncated, i)
		}
		x[i%NumStates] = uint32(e&0xffff) + uint32(win>>1>>((63-nb)&63))
		out[i] = S(e >> 32)
		unread -= uint64(nb)
	}
	return nil
}

// window loads the top of an LSB-first bitstream holding unread bits
// [0, unread): the returned word carries bit unread−1 at its most
// significant position, and avail (≥ 57 while that many remain) counts the
// valid bits below it.
func window(stream []byte, unread uint64) (win uint64, avail uint) {
	end := int((unread + 7) >> 3)
	if end >= 8 {
		pad := uint(uint64(end)*8 - unread)
		return binary.LittleEndian.Uint64(stream[end-8:]) << pad, 64 - pad
	}
	if unread == 0 {
		return 0, 0
	}
	for k := 0; k < end; k++ {
		win |= uint64(stream[k]) << (8 * uint(k))
	}
	return win << (64 - unread), uint(unread)
}

// AppendSerialized appends the table's normalized histogram to dst: one byte
// tableLog, a uvarint symbol count, then per symbol (value-ascending) a
// uvarint symbol delta (+1 from previous, first absolute) and a uvarint
// normalized count. Parse reconstructs an identical table because the spread
// is a pure function of (tableLog, histogram).
func (t *Table) AppendSerialized(dst []byte) []byte {
	dst = append(dst, byte(t.tableLog))
	dst = binary.AppendUvarint(dst, uint64(len(t.syms)))
	prev := int64(-1)
	for j, s := range t.syms {
		dst = binary.AppendUvarint(dst, uint64(int64(s)-prev))
		dst = binary.AppendUvarint(dst, uint64(t.norm[j]))
		prev = int64(s)
	}
	return dst
}

// Serialize returns AppendSerialized in a fresh buffer.
func (t *Table) Serialize() []byte {
	return t.AppendSerialized(make([]byte, 0, len(t.syms)*3+8))
}

// Parse reconstructs a table serialized by Serialize, returning the byte
// count consumed. All structural invariants are re-validated, so a corrupt
// or adversarial input yields a typed error, never a panic or an
// inconsistent table.
func Parse(data []byte) (*Table, int, error) {
	if len(data) < 2 {
		return nil, 0, fmt.Errorf("%w: table shorter than 2 bytes", ErrCorrupt)
	}
	tableLog := uint(data[0])
	if tableLog < MinTableLog || tableLog > MaxTableLog {
		return nil, 0, fmt.Errorf("%w: table log %d outside %d..%d", ErrCorrupt, tableLog, MinTableLog, MaxTableLog)
	}
	pos := 1
	n64, k := binary.Uvarint(data[pos:])
	if k <= 0 {
		return nil, 0, fmt.Errorf("%w: bad symbol count", ErrCorrupt)
	}
	pos += k
	if n64 == 0 || n64 > 1<<tableLog {
		return nil, 0, fmt.Errorf("%w: %d symbols for table log %d", ErrCorrupt, n64, tableLog)
	}
	n := int(n64)
	t := shell()
	fail := func(err error) (*Table, int, error) {
		t.Release()
		return nil, 0, err
	}
	prev := int64(-1)
	var sum uint64
	for j := 0; j < n; j++ {
		d, k := binary.Uvarint(data[pos:])
		if k <= 0 {
			return fail(fmt.Errorf("%w: truncated symbol delta", ErrCorrupt))
		}
		pos += k
		if d == 0 {
			return fail(fmt.Errorf("%w: zero symbol delta", ErrCorrupt))
		}
		sym := prev + int64(d)
		if sym < 0 || sym > int64(^uint32(0)) {
			return fail(fmt.Errorf("%w: symbol out of range", ErrCorrupt))
		}
		c, k := binary.Uvarint(data[pos:])
		if k <= 0 {
			return fail(fmt.Errorf("%w: truncated count", ErrCorrupt))
		}
		pos += k
		if c == 0 || c > 1<<tableLog {
			return fail(fmt.Errorf("%w: count %d for table log %d", ErrCorrupt, c, tableLog))
		}
		t.syms = append(t.syms, uint32(sym))
		t.norm = append(t.norm, uint32(c))
		sum += c
		prev = sym
	}
	if sum != 1<<tableLog {
		return fail(fmt.Errorf("%w: counts sum %d, want %d", ErrCorrupt, sum, 1<<tableLog))
	}
	if err := t.assemble(tableLog); err != nil {
		return fail(err)
	}
	return t, pos, nil
}
