//go:build race

package compressor

// raceEnabled: under the race detector sync.Pool drops a quarter of its
// Puts on purpose, so steady-state allocation guards cannot hold.
const raceEnabled = true
