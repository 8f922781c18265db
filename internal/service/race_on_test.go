//go:build race

package service

// raceEnabled: under the race detector sync.Pool drops a quarter of its
// Puts on purpose, so pooled buffers allocate unevenly and allocation
// guards cannot hold.
const raceEnabled = true
