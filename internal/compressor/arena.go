package compressor

import (
	"sync"

	"rqm/internal/bitio"
)

// arena is the pooled per-compression scratch set: every buffer the hot path
// needs — the reconstruction work slice, the symbol stream, the dense
// code-frequency counters, the Huffman encode LUT, the PWREL bitmaps, and
// the payload bit writer — lives here, so steady-state compression under
// serving load allocates only what escapes into the output container.
//
// Ownership rules (see DESIGN.md §12):
//   - Compress/Decompress acquire an arena on entry and release it before
//     returning; nothing reachable from a Result or a returned Field may
//     alias arena memory (work on the decompress side is the caller's
//     DecompressInto buffer or fresh, because it escapes as Field.Data).
//     The decode side's lossless-stage output (raw) and PWREL bitmaps are
//     arena memory: they are consumed before Decompress returns.
//   - counts is kept all-zero between uses. Whoever increments an entry
//     appends its index to touched exactly once; release() zeroes only the
//     touched entries, so cleanup is O(distinct symbols), not O(radius).
//   - encLUT is never cleared: stale entries are harmless because the
//     encoder only reads entries for symbols present in the codebook it
//     just built (the huffman.EncodeLUT contract).
type arena struct {
	work    []float64
	syms    []uint32
	unpred  []float64
	counts  []int64
	touched []uint32
	encLUT  []uint64
	signs   []byte
	zeros   []byte
	bw      *bitio.Writer
	// Entropy-stage scratch beyond the serial writer: one bit writer per
	// interleaved stream, a dense ANS encode LUT, the ANS output buffer,
	// the interleaved-blob assembly buffer and the serialized Huffman
	// codebook.
	bws     []*bitio.Writer
	ansLUTb []uint32
	ansBuf  []byte
	blobBuf []byte
	cbBuf   []byte
	// raw is the decode side's lossless-stage output, the bytes the entropy
	// decoder reads.
	raw []byte
}

var arenaPool = sync.Pool{New: func() interface{} { return &arena{} }}

func getArena() *arena { return arenaPool.Get().(*arena) }

// release restores the arena invariants (zero counts, empty touched) and
// returns it to the pool.
func (a *arena) release() {
	for _, s := range a.touched {
		a.counts[s] = 0
	}
	a.touched = a.touched[:0]
	a.unpred = a.unpred[:0]
	if a.bw != nil {
		a.bw.Reset()
	}
	arenaPool.Put(a)
}

// f64 returns a length-n float64 scratch slice, reusing capacity.
func (a *arena) f64(n int) []float64 {
	if cap(a.work) < n {
		a.work = make([]float64, n)
	}
	a.work = a.work[:n]
	return a.work
}

// u32 returns a length-n uint32 scratch slice, reusing capacity.
func (a *arena) u32(n int) []uint32 {
	if cap(a.syms) < n {
		a.syms = make([]uint32, n)
	}
	a.syms = a.syms[:n]
	return a.syms
}

// freqTables returns the dense counter and encode-LUT slices sized for n
// symbol values. Fresh counter memory is zero by construction; reused
// counter memory is zero by the release() invariant.
func (a *arena) freqTables(n int) (counts []int64, encLUT []uint64) {
	if cap(a.counts) < n {
		a.counts = make([]int64, n)
	}
	a.counts = a.counts[:n]
	if cap(a.encLUT) < n {
		a.encLUT = make([]uint64, n)
	}
	a.encLUT = a.encLUT[:n]
	return a.counts, a.encLUT
}

// bitmaps returns the two length-n PWREL bitmap slices, zeroed. Each is
// sized on its own: the decode side grows them one at a time, so their
// capacities need not agree.
func (a *arena) bitmaps(n int) (signs, zeros []byte) {
	a.signs, a.zeros = zeroed(a.signs, n), zeroed(a.zeros, n)
	return a.signs, a.zeros
}

// zeroed returns b at length n and all zero, reusing its capacity.
func zeroed(b []byte, n int) []byte {
	if cap(b) < n {
		return make([]byte, n)
	}
	b = b[:n]
	clear(b)
	return b
}

// bitWriter returns the pooled payload writer, reset.
func (a *arena) bitWriter() *bitio.Writer {
	if a.bw == nil {
		a.bw = bitio.NewWriter(0)
	}
	a.bw.Reset()
	return a.bw
}

// bitWriters returns k pooled stream writers, reset.
func (a *arena) bitWriters(k int) []*bitio.Writer {
	for len(a.bws) < k {
		a.bws = append(a.bws, bitio.NewWriter(0))
	}
	for i := 0; i < k; i++ {
		a.bws[i].Reset()
	}
	return a.bws[:k]
}

// ansLUT returns the length-n dense ANS encode LUT scratch (ans.FillLUT
// overwrites every entry, so no clearing invariant is needed).
func (a *arena) ansLUT(n int) []uint32 {
	if cap(a.ansLUTb) < n {
		a.ansLUTb = make([]uint32, n)
	}
	a.ansLUTb = a.ansLUTb[:n]
	return a.ansLUTb
}

// blob returns a length-n byte scratch slice, reusing capacity.
func (a *arena) blob(n int) []byte {
	if cap(a.blobBuf) < n {
		a.blobBuf = make([]byte, n)
	}
	a.blobBuf = a.blobBuf[:n]
	return a.blobBuf
}
