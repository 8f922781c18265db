//go:build race

package store_test

// raceEnabled: under the race detector sync.Pool drops a quarter of its
// Puts on purpose, so the readers' pooled buffers allocate unevenly and
// allocation guards cannot hold.
const raceEnabled = true
