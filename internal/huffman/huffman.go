package huffman

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"

	"rqm/internal/bitio"
)

// MaxCodeLen bounds code lengths; frequencies are flattened until the bound
// holds, which keeps every code within a single bitio read.
const MaxCodeLen = 32

// decodeTableBits bounds the one-shot decode acceleration table: codes up to
// this many bits long resolve with a single table lookup instead of the
// per-length compare. Quantization codes concentrate around zero, so in
// practice almost every symbol decodes through the table.
const decodeTableBits = 11

// ErrTruncatedCodebook marks a serialized codebook that ends before the
// entries its header declares.
var ErrTruncatedCodebook = errors.New("huffman: truncated codebook")

// Codebook holds canonical codes for a symbol set. Build, BuildDense and
// Parse take its shell — every slice below included — from a pool; a caller
// that codes at chunk rate hands it back with Release, one that does not
// leaves it to the collector.
type Codebook struct {
	// syms and lens are the entries by ascending symbol: what Build and Parse
	// fill and what Serialize emits.
	syms []uint32
	lens []uint8
	// symbols, lengths and codes are the same entries in canonical order,
	// (length asc, symbol asc).
	symbols []uint32
	lengths []uint8
	codes   []uint32
	// index maps symbol -> canonical position. Only an Encode without a LUT
	// consults it, and builds it on first use.
	index map[uint32]int32
	// Per code length l: the first canonical code of that length, its
	// canonical position, and limit[l], the end of the codes no longer than l
	// left-aligned to 32 bits — a 32-bit stream prefix below limit[l] starts
	// with a code of at most l bits.
	firstCode  [MaxCodeLen + 1]uint32
	firstIndex [MaxCodeLen + 1]int32
	limit      [MaxCodeLen + 1]uint64
	maxLen     uint8
	// dtab is the one-shot decode table over tabBits-wide prefixes: entry
	// symbol<<8 | length, 0 = no code of length <= tabBits here. The length
	// sits in the low bits so a decode loop shifts by the entry as loaded.
	dtab    []uint64
	tabBits uint
	// maxSym is the largest symbol value (the dense-LUT sizing bound).
	maxSym uint32
	// freq and tree are build scratch kept with the pooled shell.
	freq []int64
	tree treeHeap
}

// codebookPool recycles Codebook shells and their slices: chunk-rate encode
// and decode must not allocate a fresh table set per chunk.
var codebookPool = sync.Pool{New: func() interface{} { return new(Codebook) }}

// shell takes an empty Codebook from the pool for a build or parse to fill.
func shell() *Codebook {
	cb := codebookPool.Get().(*Codebook)
	cb.syms, cb.lens, cb.freq = cb.syms[:0], cb.lens[:0], cb.freq[:0]
	return cb
}

// Release returns the codebook to the pool. The caller must not use it after.
func (cb *Codebook) Release() {
	cb.index = nil
	codebookPool.Put(cb)
}

// Build constructs a canonical codebook from symbol frequencies. Zero-count
// symbols are ignored; at least one positive count is required.
func Build(freqs map[uint32]int64) (*Codebook, error) {
	cb := shell()
	for s, f := range freqs {
		if f > 0 {
			cb.syms = append(cb.syms, s)
		}
	}
	slices.Sort(cb.syms)
	for _, s := range cb.syms {
		cb.freq = append(cb.freq, freqs[s])
	}
	return cb.build()
}

// BuildDense is Build over a dense histogram: counts[s] is symbol s's
// frequency and touched lists, in any order and each once, the symbols whose
// count may be positive (nil: every index of counts). The codebook is the one
// Build returns for the same frequencies; once the pool is warm it allocates
// nothing.
func BuildDense(counts []int64, touched []uint32) (*Codebook, error) {
	cb := shell()
	if touched == nil {
		for s, f := range counts {
			if f > 0 {
				cb.syms = append(cb.syms, uint32(s))
				cb.freq = append(cb.freq, f)
			}
		}
		return cb.build()
	}
	for _, s := range touched {
		if counts[s] > 0 {
			cb.syms = append(cb.syms, s)
		}
	}
	slices.Sort(cb.syms)
	for _, s := range cb.syms {
		cb.freq = append(cb.freq, counts[s])
	}
	return cb.build()
}

// build derives code lengths from cb.freq (parallel to the ascending
// cb.syms) and assembles the tables. On error the shell goes back to the
// pool.
func (cb *Codebook) build() (*Codebook, error) {
	n := len(cb.syms)
	if n == 0 {
		cb.Release()
		return nil, errors.New("huffman: no symbols with positive frequency")
	}
	cb.lens = slices.Grow(cb.lens[:0], n)[:n]
	if n == 1 {
		cb.lens[0] = 1
	} else {
		for cb.tree.lengths(cb.freq, cb.lens) > MaxCodeLen {
			// Flatten the distribution and retry; converges because lengths
			// shrink toward the balanced-tree depth ceil(log2(n)) <= 32 for any
			// alphabet addressed by uint32 counts of this size.
			for i := range cb.freq {
				cb.freq[i] = (cb.freq[i] + 1) / 2
			}
		}
	}
	if err := cb.assemble(); err != nil {
		cb.Release()
		return nil, err
	}
	return cb, nil
}

// treeItem is one live subtree in the tree builder's min-heap, ordered by
// (freq, sym). A leaf's sym is its item index and a merged subtree carries
// its first child's, so live keys are distinct: the merge order — and with it
// the tree and every emitted container — is fixed by the frequencies alone,
// whatever the heap does inside.
type treeItem struct {
	freq int64
	sym  uint32
	node int32
}

func (a treeItem) less(b treeItem) bool {
	return a.freq < b.freq || a.freq == b.freq && a.sym < b.sym
}

// treeHeap is the tree builder's pooled scratch: the heap, the children of
// each merged node (node n+j is the j-th merge; nodes below n are the leaves)
// and the depth walk's stack.
type treeHeap struct {
	h     []treeItem
	kids  [][2]int32
	stack []int64
}

func (t *treeHeap) down(i int) {
	h := t.h
	x := h[i]
	for {
		j := 2*i + 1
		if j >= len(h) {
			break
		}
		if j+1 < len(h) && h[j+1].less(h[j]) {
			j++
		}
		if !h[j].less(x) {
			break
		}
		h[i] = h[j]
		i = j
	}
	h[i] = x
}

func (t *treeHeap) pop() treeItem {
	top := t.h[0]
	last := len(t.h) - 1
	t.h[0] = t.h[last]
	t.h = t.h[:last]
	if last > 0 {
		t.down(0)
	}
	return top
}

func (t *treeHeap) push(x treeItem) {
	t.h = append(t.h, x)
	h := t.h
	j := len(h) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !x.less(h[i]) {
			break
		}
		h[j] = h[i]
		j = i
	}
	h[j] = x
}

// lengths builds a Huffman tree over freqs (at least two) and writes each
// item's code length into out, returning the longest.
func (t *treeHeap) lengths(freqs []int64, out []uint8) (longest uint8) {
	n := len(freqs)
	t.h = slices.Grow(t.h[:0], n)[:n]
	for i, f := range freqs {
		t.h[i] = treeItem{freq: f, sym: uint32(i), node: int32(i)}
	}
	for i := n/2 - 1; i >= 0; i-- {
		t.down(i)
	}
	t.kids = t.kids[:0]
	for len(t.h) > 1 {
		a := t.pop()
		b := t.pop()
		t.kids = append(t.kids, [2]int32{a.node, b.node})
		t.push(treeItem{freq: a.freq + b.freq, sym: a.sym, node: int32(n + len(t.kids) - 1)})
	}
	// Iterative depth assignment over (node, depth) packed into one int64.
	stack := append(t.stack[:0], int64(t.h[0].node)<<8)
	for len(stack) > 0 {
		e := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		node, depth := int(e>>8), uint8(e&0xff)
		if node < n {
			out[node] = depth
			longest = max(longest, depth)
			continue
		}
		kids := t.kids[node-n]
		stack = append(stack, int64(kids[0])<<8|int64(depth+1), int64(kids[1])<<8|int64(depth+1))
	}
	t.stack = stack
	return longest
}

// assemble derives the canonical order, the codes and the decode tables from
// the entries in cb.syms / cb.lens (symbols strictly ascending). Sorting
// symbol-ascending entries stably by length is the canonical order, so one
// counting pass per length replaces a comparison sort.
func (cb *Codebook) assemble() error {
	n := len(cb.syms)
	var count [MaxCodeLen + 1]int32
	for _, l := range cb.lens {
		if l == 0 || l > MaxCodeLen {
			return fmt.Errorf("huffman: invalid code length %d", l)
		}
		count[l]++
	}
	var next [MaxCodeLen + 1]int32 // canonical position of each length's next entry
	var code uint64
	var at int32
	cb.maxLen = 0
	for l := 1; l <= MaxCodeLen; l++ {
		code <<= 1
		cb.firstCode[l], cb.firstIndex[l], next[l] = uint32(code), at, at
		code += uint64(count[l])
		at += count[l]
		if code > 1<<l {
			return errors.New("huffman: code lengths violate Kraft inequality")
		}
		cb.limit[l] = code << (32 - l)
		if count[l] > 0 {
			cb.maxLen = uint8(l)
		}
	}
	cb.symbols = slices.Grow(cb.symbols[:0], n)[:n]
	cb.lengths = slices.Grow(cb.lengths[:0], n)[:n]
	cb.codes = slices.Grow(cb.codes[:0], n)[:n]
	for i, s := range cb.syms {
		l := cb.lens[i]
		j := next[l]
		next[l]++
		cb.symbols[j] = s
		cb.lengths[j] = l
		cb.codes[j] = cb.firstCode[l] + uint32(j-cb.firstIndex[l])
	}
	cb.maxSym = cb.syms[n-1]
	cb.index = nil

	// The one-shot prefix table. Symbols are in canonical order (length
	// ascending), so the fill stops at the first code longer than tabBits;
	// prefixes not covered keep entry 0 and resolve by the per-length
	// compare.
	tb := min(uint(cb.maxLen), decodeTableBits)
	cb.tabBits = tb
	cb.dtab = slices.Grow(cb.dtab[:0], 1<<tb)[:1<<tb]
	clear(cb.dtab)
	for i, l := range cb.lengths {
		if uint(l) > tb {
			break
		}
		base := cb.codes[i] << (tb - uint(l))
		e := uint64(cb.symbols[i])<<8 | uint64(l)
		for j := range uint32(1) << (tb - uint(l)) {
			cb.dtab[base+j] = e
		}
	}
	return nil
}

// positions returns the symbol -> canonical position index, built on first
// use — so concurrent callers on one Codebook need external locking.
func (cb *Codebook) positions() map[uint32]int32 {
	if cb.index == nil {
		cb.index = make(map[uint32]int32, len(cb.symbols))
		for i, s := range cb.symbols {
			cb.index[s] = int32(i)
		}
	}
	return cb.index
}

// Encode appends the codes for syms to w. Unknown symbols are an error. It
// goes through the symbol index the codebook builds on first use, so
// concurrent Encodes on one Codebook need external locking (EncodeLUT does
// not).
func (cb *Codebook) Encode(w *bitio.Writer, syms []uint32) error {
	index := cb.positions()
	for _, s := range syms {
		i, ok := index[s]
		if !ok {
			return fmt.Errorf("huffman: symbol %d not in codebook", s)
		}
		w.WriteBits(uint64(cb.codes[i]), uint(cb.lengths[i]))
	}
	return nil
}

// MaxSymbol returns the largest symbol value in the codebook; a dense encode
// LUT must have at least MaxSymbol()+1 entries.
func (cb *Codebook) MaxSymbol() uint32 { return cb.maxSym }

// FillLUT writes each codebook symbol's packed code (code<<8 | length) into
// lut[sym]. len(lut) must exceed MaxSymbol(). Entries for symbols outside
// the codebook are left untouched, so a pooled scratch slice need not be
// cleared between uses — but see the EncodeLUT contract.
func (cb *Codebook) FillLUT(lut []uint64) {
	for i, s := range cb.symbols {
		lut[s] = uint64(cb.codes[i])<<8 | uint64(cb.lengths[i])
	}
}

// EncodeLUT is Encode through a dense scratch LUT previously filled with
// FillLUT, replacing the per-symbol map lookup with an array index. The
// caller must guarantee every symbol of syms is in the codebook (stale LUT
// entries are not detected); the compressor hot path satisfies this by
// building the codebook from the same symbol stream it encodes.
func (cb *Codebook) EncodeLUT(w *bitio.Writer, syms []uint32, lut []uint64) error {
	if i := w.WriteCodes(syms, 1, lut); i < len(syms) {
		return fmt.Errorf("huffman: symbol %d outside LUT of %d entries", syms[i], len(lut))
	}
	return nil
}

// AppendSerialized appends the codebook to dst: uvarint(count), then per
// entry by ascending symbol a uvarint symbol delta (+1 from previous, first
// is absolute) and a length byte.
func (cb *Codebook) AppendSerialized(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(cb.syms)))
	prev := int64(-1)
	for i, s := range cb.syms {
		dst = binary.AppendUvarint(dst, uint64(int64(s)-prev))
		dst = append(dst, cb.lens[i])
		prev = int64(s)
	}
	return dst
}

// Serialize returns AppendSerialized in a fresh buffer.
func (cb *Codebook) Serialize() []byte {
	return cb.AppendSerialized(make([]byte, 0, len(cb.syms)*2+10))
}

// Parse reconstructs a codebook serialized by Serialize, returning the
// number of bytes consumed. Nothing entry-sized is allocated before the
// declared count is checked against the bytes present.
func Parse(data []byte) (*Codebook, int, error) {
	n64, pos := binary.Uvarint(data)
	if pos <= 0 {
		return nil, 0, errors.New("huffman: bad codebook count")
	}
	if n64 == 0 || n64 > 1<<28 {
		return nil, 0, fmt.Errorf("huffman: unreasonable codebook size %d", n64)
	}
	// Every entry is at least a one-byte delta and a length byte.
	if n64 > uint64(len(data)-pos)/2 {
		return nil, 0, fmt.Errorf("%w: %d entries declared, %d bytes present", ErrTruncatedCodebook, n64, len(data)-pos)
	}
	cb := shell()
	fail := func(err error) (*Codebook, int, error) {
		cb.Release()
		return nil, 0, err
	}
	prev := int64(-1)
	for range n64 {
		d, k := binary.Uvarint(data[pos:])
		if k <= 0 {
			return fail(fmt.Errorf("%w: symbol", ErrTruncatedCodebook))
		}
		pos += k
		if pos >= len(data) {
			return fail(fmt.Errorf("%w: length", ErrTruncatedCodebook))
		}
		// Symbols ascend strictly: a zero delta repeats one, and a delta past
		// the symbol range could wrap back below its predecessor.
		sym := prev + int64(d)
		if d == 0 || d > 1<<32 || sym > int64(^uint32(0)) {
			return fail(errors.New("huffman: symbol out of range or not ascending"))
		}
		cb.syms = append(cb.syms, uint32(sym))
		cb.lens = append(cb.lens, data[pos])
		pos++
		prev = sym
	}
	if err := cb.assemble(); err != nil {
		return fail(err)
	}
	return cb, pos, nil
}
