// Package faultfs is the fault-injection harness behind the chaos suite: a
// read-side filesystem interposer that satisfies store.ReadFS (structurally
// — this package does not import the store) and corrupts what passes
// through it on demand. Faults come in two families:
//
//   - Transform faults rewrite the bytes a read returns — flip a byte at an
//     offset, truncate to a length, tear a manifest mid-JSON — without
//     touching the disk, so one store can serve intact and corrupt views of
//     the same committed dataset across test cases.
//
//   - Latency faults delay or hang reads, for exercising timeout/failover
//     paths. A hang blocks until the FS is Released or closed.
//
// Faults are keyed by path suffix (so tests write "nyx/t0/data.rqz"-style
// keys without caring about the temp root) and are matched against both
// Open and ReadFile. For on-disk (persistent) corruption — the kind scrub
// must find and quarantine — tests use CorruptFile, which rewrites the real
// file in place, or ForgeChunk, which does so behind a valid CRC. WaitFor
// awaits the asynchronous healing a fault sets off.
package faultfs

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"strings"
	"sync"
	"time"
)

// Fault describes what to do to reads of one matched path.
type Fault struct {
	// FlipByte XORs the byte at offset FlipOffset with 0xFF. Applied when
	// FlipOffset >= 0.
	FlipOffset int64
	// TruncateTo, when >= 0, cuts the returned content to at most this many
	// bytes.
	TruncateTo int64
	// Tear, when set, replaces the tail half of the content with garbage —
	// the shape of a manifest torn mid-write.
	Tear bool
	// Delay pauses each matched read before serving it.
	Delay time.Duration
	// Hang blocks each matched read until Release (or Close) is called.
	Hang bool
	// Err, when set, fails the matched read outright with this error.
	Err error
}

// NewFault returns a Fault with no byte-flip armed (FlipOffset sentinel -1
// and TruncateTo sentinel -1); fill in the fields to taste.
func NewFault() Fault { return Fault{FlipOffset: -1, TruncateTo: -1} }

// FS is the injectable read-side filesystem. The zero value is not usable;
// construct with New. Safe for concurrent use.
type FS struct {
	mu      sync.Mutex
	faults  map[string]Fault // path suffix → fault
	release chan struct{}    // closed to release hung reads

	reads   int64 // matched reads served (after any transform)
	hung    int64 // reads that blocked on a Hang fault
	flipped int64 // reads served with a byte flipped
}

// New returns an empty interposer: until faults are set, it is the real
// filesystem.
func New() *FS {
	return &FS{faults: map[string]Fault{}, release: make(chan struct{})}
}

// Set arms a fault for every path ending in suffix. Setting a suffix again
// replaces its fault.
func (f *FS) Set(suffix string, fault Fault) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.faults[suffix] = fault
}

// Clear disarms the fault for suffix.
func (f *FS) Clear(suffix string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.faults, suffix)
}

// Reset disarms every fault and releases any hung reads.
func (f *FS) Reset() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.faults = map[string]Fault{}
	close(f.release)
	f.release = make(chan struct{})
}

// Release unblocks reads currently parked on a Hang fault; the fault stays
// armed for future reads.
func (f *FS) Release() {
	f.mu.Lock()
	defer f.mu.Unlock()
	close(f.release)
	f.release = make(chan struct{})
}

// Stats reports reads served through the interposer, reads that hit a Hang
// fault, and reads served with a flipped byte.
func (f *FS) Stats() (reads, hung, flipped int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.reads, f.hung, f.flipped
}

// match finds the armed fault for path, if any.
func (f *FS) match(path string) (Fault, chan struct{}, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for suffix, fault := range f.faults {
		if strings.HasSuffix(path, suffix) {
			return fault, f.release, true
		}
	}
	return Fault{}, nil, false
}

// stall applies a fault's latency component.
func (f *FS) stall(fault Fault, release chan struct{}) {
	if fault.Delay > 0 {
		time.Sleep(fault.Delay)
	}
	if fault.Hang {
		f.mu.Lock()
		f.hung++
		f.mu.Unlock()
		<-release
	}
}

// transform applies a fault's byte-rewriting component to content.
func (f *FS) transform(fault Fault, data []byte) []byte {
	out := data
	if fault.TruncateTo >= 0 && int64(len(out)) > fault.TruncateTo {
		out = out[:fault.TruncateTo]
	}
	if fault.Tear && len(out) > 0 {
		torn := make([]byte, len(out))
		copy(torn, out)
		for i := len(torn) / 2; i < len(torn); i++ {
			torn[i] = 0xA5
		}
		out = torn
	}
	if fault.FlipOffset >= 0 && fault.FlipOffset < int64(len(out)) {
		flipped := make([]byte, len(out))
		copy(flipped, out)
		flipped[fault.FlipOffset] ^= 0xFF
		out = flipped
		f.mu.Lock()
		f.flipped++
		f.mu.Unlock()
	}
	return out
}

// ReadFile implements the store's read hook for whole-file reads.
func (f *FS) ReadFile(path string) ([]byte, error) {
	fault, release, ok := f.match(path)
	if !ok {
		return os.ReadFile(path)
	}
	f.stall(fault, release)
	if fault.Err != nil {
		return nil, fmt.Errorf("faultfs: %s: %w", path, fault.Err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	f.reads++
	f.mu.Unlock()
	return f.transform(fault, data), nil
}

// Open implements the store's read hook for seekable reads. A faulted open
// reads the whole file up front and serves the transformed bytes from
// memory — containers in tests are small, and it keeps every seek/read
// combination consistent with the injected view.
func (f *FS) Open(path string) (io.ReadSeekCloser, error) {
	fault, release, ok := f.match(path)
	if !ok {
		return os.Open(path)
	}
	f.stall(fault, release)
	if fault.Err != nil {
		return nil, fmt.Errorf("faultfs: %s: %w", path, fault.Err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	f.reads++
	f.mu.Unlock()
	return nopReadSeekCloser{bytes.NewReader(f.transform(fault, data))}, nil
}

type nopReadSeekCloser struct{ *bytes.Reader }

func (nopReadSeekCloser) Close() error { return nil }

// CorruptFile rewrites a real on-disk file in place, XOR-flipping the byte
// at offset (negative offsets count from the end). This is persistent
// corruption — the bit rot scrub exists to find — as opposed to the
// injected read views above.
func CorruptFile(path string, offset int64) error {
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	if offset < 0 {
		offset += fi.Size()
	}
	if offset < 0 || offset >= fi.Size() {
		return errors.New("faultfs: flip offset outside file")
	}
	h, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	defer h.Close()
	b := make([]byte, 1)
	if _, err := h.ReadAt(b, offset); err != nil {
		return err
	}
	b[0] ^= 0xFF
	if _, err := h.WriteAt(b, offset); err != nil {
		return err
	}
	return h.Sync()
}

// ForgeChunk rewrites, in place, the chunk record at offset of a chunked
// container on disk so that it passes every CRC check but does not decode:
// the first four bytes of its payload (the native codec's magic) are
// flipped and the CRC-32 in the record head is recomputed over the new
// payload. A record head is the tag, the codec id, the bound (8 bytes), the
// value count (4), the payload length (4) and the payload's CRC (4).
// Shallow verification passes the forged record; only a decode, or a hash
// of the whole file, finds it.
func ForgeChunk(path string, offset int64) error {
	const head = 22
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if offset < 0 || offset+head+4 > int64(len(raw)) {
		return errors.New("faultfs: chunk record outside file")
	}
	rec := raw[offset:]
	n := int64(binary.LittleEndian.Uint32(rec[14:]))
	if n < 4 || head+n > int64(len(rec)) {
		return errors.New("faultfs: chunk payload outside file")
	}
	payload := rec[head : head+n]
	for i := range 4 {
		payload[i] ^= 0xFF
	}
	binary.LittleEndian.PutUint32(rec[18:], crc32.ChecksumIEEE(payload))
	h, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	defer h.Close()
	if _, err := h.WriteAt(rec[:head+n], offset); err != nil {
		return err
	}
	return h.Sync()
}
