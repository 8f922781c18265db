package store_test

import (
	"math"
	"runtime"
	"sync"
	"testing"

	"rqm/internal/poison"
	"rqm/internal/store"
)

// TestReadRangeAllocatesOnlyItsValues: a range read costs the values it
// returns plus a fixed overhead, whatever the chunk size. Every chunk
// decodes into a pooled buffer and every payload is read into a pooled
// buffer. Before, each covering chunk cost a fresh decode (8 B/value of the
// whole chunk) and a fresh payload.
func TestReadRangeAllocatesOnlyItsValues(t *testing.T) {
	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const chunk = 1 << 16
	m := putField(t, s, "big", testField(t, 4*chunk), chunk, 1e-4)
	full, err := s.ReadRangeWith(m, 0, m.TotalValues)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ off, n int64 }{
		{chunk - 500, 1000},    // two cut chunks
		{chunk / 2, 2 * chunk}, // one whole chunk between two cut ones
		{0, 4 * chunk},         // every chunk whole
	} {
		least := uint64(math.MaxUint64)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			vals, err := s.ReadRangeWith(m, tc.off, tc.n)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range vals {
				if math.Float64bits(v) != math.Float64bits(full[tc.off+int64(i)]) {
					t.Fatalf("ReadRangeWith(%d, %d)[%d] = %v, the full read has %v", tc.off, tc.n, i, v, full[tc.off+int64(i)])
				}
			}
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		if poison.Enabled {
			continue // sync.Pool drops Puts at random under the race detector
		}
		if over := int64(least) - 8*tc.n; over > 32<<10 {
			t.Errorf("ReadRangeWith(%d, %d) allocates %d bytes beyond its %d values' %d", tc.off, tc.n, over, tc.n, 8*tc.n)
		}
	}
}

// TestConcurrentRangeReadsShareNoBuffer: range reads running at once draw
// chunk and payload buffers from the same pools, and each still returns
// exactly its own range.
func TestConcurrentRangeReadsShareNoBuffer(t *testing.T) {
	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const chunk = 1 << 12
	m := putField(t, s, "shared", testField(t, 16*chunk), chunk, 1e-4)
	full, err := s.ReadRangeWith(m, 0, m.TotalValues)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range 25 {
				n := int64(chunk/2 + k*97)
				off := int64(g*7919+k*104729) % (m.TotalValues - n)
				vals, err := s.ReadRangeWith(m, off, n)
				if err != nil {
					t.Error(err)
					return
				}
				for i, v := range vals {
					if math.Float64bits(v) != math.Float64bits(full[off+int64(i)]) {
						t.Errorf("ReadRangeWith(%d, %d)[%d] = %v, want %v", off, n, i, v, full[off+int64(i)])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
