//go:build race

package stream

// raceEnabled: under the race detector sync.Pool drops a quarter of its
// Puts on purpose, so the decoders' pooled buffers allocate unevenly and
// allocation guards cannot hold.
const raceEnabled = true
